(* Domain-parallel warp replay: the deterministic-reduction contract.
   Whatever the domain count, every analyzer artifact — report JSON,
   blame rankings, folded flamegraph, timelines, warp traces — must be
   byte-identical to the sequential replay. *)

module W = Threadfuser_workloads.Workload
module Registry = Threadfuser_workloads.Registry
module Analyzer = Threadfuser.Analyzer
module Metrics = Threadfuser.Metrics
module Par_replay = Threadfuser.Par_replay
module Warp_serial = Threadfuser.Warp_serial
module Report_json = Threadfuser_report.Report_json
module Flamegraph = Threadfuser_report.Flamegraph

(* ------------------------------------------------------------------ *)
(* map_shards unit behaviour                                            *)

(* Each index lands in exactly one shard, visited in ascending order
   within its worker, and shards come back in worker order. *)
let test_shards_partition () =
  List.iter
    (fun (domains, n) ->
      let shards =
        Par_replay.map_shards ~domains ~n
          ~init:(fun () -> ref [])
          ~item:(fun acc i -> acc := i :: !acc)
      in
      let seen = List.concat_map (fun acc -> List.rev !acc) shards in
      let sorted = List.sort compare seen in
      Alcotest.(check (list int))
        (Printf.sprintf "d=%d n=%d covers each index once" domains n)
        (List.init n (fun i -> i))
        sorted;
      List.iter
        (fun acc ->
          let l = List.rev !acc in
          Alcotest.(check (list int)) "ascending within worker"
            (List.sort compare l) l)
        shards;
      (* chunks are contiguous, so worker-order concatenation is the
         identity permutation *)
      Alcotest.(check (list int)) "worker order = index order"
        (List.init n (fun i -> i))
        seen)
    [ (1, 7); (3, 7); (4, 4); (8, 3); (4, 16) ]

(* The exception a sequential loop would have raised first (lowest
   index) is the one that surfaces, whatever worker hit it. *)
let test_shards_exception () =
  match
    Par_replay.map_shards ~domains:4 ~n:16
      ~init:(fun () -> ())
      ~item:(fun () i -> if i mod 5 = 3 then failwith (string_of_int i))
  with
  | _ -> Alcotest.fail "expected an item exception to propagate"
  | exception Failure i ->
      Alcotest.(check string) "lowest failing index wins" "3" i

(* parallel_for: the simulators' disjoint-range primitive *)
let test_parallel_for_coverage () =
  List.iter
    (fun (domains, n) ->
      let hits = Array.make n 0 in
      Par_replay.parallel_for ~domains ~n (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check (list int))
        (Printf.sprintf "d=%d n=%d each index exactly once" domains n)
        (List.init n (fun _ -> 1))
        (Array.to_list hits))
    [ (1, 5); (3, 7); (4, 4); (8, 3); (6, 0) ]

let test_parallel_for_exception () =
  match
    Par_replay.parallel_for ~domains:4 ~n:12 (fun i ->
        if i mod 5 = 2 then failwith (string_of_int i))
  with
  | () -> Alcotest.fail "expected the body exception to propagate"
  | exception Failure i ->
      Alcotest.(check string) "lowest failing index wins" "2" i

(* auto -j: the work-based cap that keeps tiny workloads off the pool *)
let test_auto_domains () =
  let t = Par_replay.min_work_per_domain in
  Alcotest.(check int) "big workload keeps its domains" 4
    (Par_replay.auto_domains ~requested:4 ~items:16 ~work:(100 * t));
  Alcotest.(check int) "tiny workload collapses to 1" 1
    (Par_replay.auto_domains ~requested:4 ~items:16 ~work:(t - 1));
  Alcotest.(check int) "mid workload gets partial credit" 2
    (Par_replay.auto_domains ~requested:4 ~items:16 ~work:(5 * t / 2));
  Alcotest.(check int) "items cap still applies" 3
    (Par_replay.auto_domains ~requested:8 ~items:3 ~work:(1000 * t));
  Alcotest.(check int) "requested 1 stays 1" 1
    (Par_replay.auto_domains ~requested:1 ~items:16 ~work:(100 * t))

(* The pool persists across fork-join sections: helper count only ever
   grows to the machine cap, never one pool per analysis. *)
let test_pool_persistent () =
  let cap = max 0 (Domain.recommended_domain_count () - 1) in
  for round = 1 to 5 do
    let hits = Array.make 8 0 in
    Par_replay.parallel_for ~domains:4 ~n:8 (fun i -> hits.(i) <- round);
    Alcotest.(check int) "round complete" (8 * round)
      (Array.fold_left ( + ) 0 hits)
  done;
  let after = Par_replay.pool_domains () in
  Alcotest.(check bool)
    (Printf.sprintf "helpers %d bounded by machine cap %d" after cap)
    true
    (after <= cap);
  (* and a second burst neither loses results nor grows the pool *)
  let acc = Array.make 16 0 in
  Par_replay.parallel_for ~domains:4 ~n:16 (fun i -> acc.(i) <- i);
  Alcotest.(check int) "work still correct on the warm pool" 120
    (Array.fold_left ( + ) 0 acc);
  Alcotest.(check int) "pool did not grow past the cap"
    after (Par_replay.pool_domains ())

(* ------------------------------------------------------------------ *)
(* End-to-end determinism over the workload registry                    *)

let analyze_at ?(warp_size = 32) ~domains traced =
  Analyzer.analyze
    ~options:
      {
        Analyzer.default_options with
        Analyzer.warp_size;
        domains;
        gen_warp_trace = true;
        record_timeline = true;
      }
    traced.W.prog traced.W.traces

(* Full artifact set at -j1 vs -j4. *)
let test_artifacts_identical () =
  List.iter
    (fun name ->
      let traced = W.trace_cpu (Registry.find name) in
      let base = analyze_at ~domains:1 traced in
      let par = analyze_at ~domains:4 traced in
      let tag what = Printf.sprintf "%s: %s identical" name what in
      Alcotest.(check string) (tag "report JSON")
        (Report_json.to_string base.Analyzer.report)
        (Report_json.to_string par.Analyzer.report);
      Alcotest.(check string) (tag "folded flamegraph")
        (Flamegraph.folded ~weight:Flamegraph.Lost base.Analyzer.flame)
        (Flamegraph.folded ~weight:Flamegraph.Lost par.Analyzer.flame);
      Alcotest.(check string) (tag "warp trace bytes")
        (Warp_serial.to_string (Option.get base.Analyzer.warp_trace))
        (Warp_serial.to_string (Option.get par.Analyzer.warp_trace));
      Alcotest.(check bool) (tag "timelines") true
        (base.Analyzer.timelines = par.Analyzer.timelines);
      (* ranking order, not just content: blame output is consumed
         top-down *)
      Alcotest.(check (list string)) (tag "divergence ranking")
        (List.map
           (fun s ->
             Printf.sprintf "%s:%d:%d" s.Metrics.ds_func s.Metrics.ds_block
               s.Metrics.ds_lost_lanes)
           base.Analyzer.report.Metrics.divergence_sites)
        (List.map
           (fun s ->
             Printf.sprintf "%s:%d:%d" s.Metrics.ds_func s.Metrics.ds_block
               s.Metrics.ds_lost_lanes)
           par.Analyzer.report.Metrics.divergence_sites))
    [ "bfs"; "hdsearch-mid"; "uncoalesced"; "md5" ]

(* Degenerate shapes: sharding must be invisible when there is nothing
   (or almost nothing) to shard. *)
let test_edge_warp_counts () =
  let traced = W.trace_cpu (Registry.find "vectoradd") in
  (* 0 warps: an empty trace set analyzes cleanly at any -j *)
  let empty_report domains =
    Report_json.to_string
      (Analyzer.analyze
         ~options:{ Analyzer.default_options with Analyzer.domains }
         traced.W.prog [||])
        .Analyzer.report
  in
  Alcotest.(check string) "0 warps: -j8 = -j1" (empty_report 1) (empty_report 8);
  (* 1 warp (a single thread), domains >> warps *)
  let one_report domains =
    Report_json.to_string
      (Analyzer.analyze
         ~options:{ Analyzer.default_options with Analyzer.domains }
         traced.W.prog [| traced.W.traces.(0) |])
        .Analyzer.report
  in
  Alcotest.(check string) "1 warp: -j8 = -j1" (one_report 1) (one_report 8);
  (* more domains than warps: every artifact still byte-identical *)
  let base = analyze_at ~domains:1 traced in
  let wide = analyze_at ~domains:64 traced in
  Alcotest.(check string) "domains >> warps: report identical"
    (Report_json.to_string base.Analyzer.report)
    (Report_json.to_string wide.Analyzer.report);
  Alcotest.(check string) "domains >> warps: warp trace identical"
    (Warp_serial.to_string (Option.get base.Analyzer.warp_trace))
    (Warp_serial.to_string (Option.get wide.Analyzer.warp_trace))

(* Random (domains, warp size): the report never depends on how the
   replay was sharded. *)
let test_sharding_invisible =
  let traced = lazy (W.trace_cpu (Registry.find "vectoradd")) in
  let base = Hashtbl.create 4 in
  let base_for warp_size =
    match Hashtbl.find_opt base warp_size with
    | Some s -> s
    | None ->
        let s =
          Report_json.to_string
            (analyze_at ~warp_size ~domains:1 (Lazy.force traced))
              .Analyzer.report
        in
        Hashtbl.add base warp_size s;
        s
  in
  QCheck.Test.make ~name:"report independent of (domains, warp size)"
    ~count:12
    QCheck.(pair (int_range 1 6) (oneofl [ 2; 4; 8; 16; 32 ]))
    (fun (domains, warp_size) ->
      Report_json.to_string
        (analyze_at ~warp_size ~domains (Lazy.force traced)).Analyzer.report
      = base_for warp_size)

let () =
  Alcotest.run "par_replay"
    [
      ( "map_shards",
        [
          Alcotest.test_case "partition covers indices" `Quick
            test_shards_partition;
          Alcotest.test_case "lowest-index exception wins" `Quick
            test_shards_exception;
          Alcotest.test_case "parallel_for coverage" `Quick
            test_parallel_for_coverage;
          Alcotest.test_case "parallel_for exception" `Quick
            test_parallel_for_exception;
          Alcotest.test_case "auto -j caps by work" `Quick test_auto_domains;
          Alcotest.test_case "pool persists across sections" `Quick
            test_pool_persistent;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "artifacts identical at -j4" `Slow
            test_artifacts_identical;
          Alcotest.test_case "0/1-warp and domains > warps" `Quick
            test_edge_warp_counts;
          QCheck_alcotest.to_alcotest test_sharding_invisible;
        ] );
    ]
