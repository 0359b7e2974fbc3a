(* Golden replay digest table.

   Every configuration below must reproduce the MD5s recorded in
   replay_digests.golden: the report JSON, the blame rankings (divergence
   and memory sites), the folded flamegraph and the Warp_serial bytes of
   the simulator trace.  The grid spans eight registry workloads, five
   warp widths (including the 1-lane and 62-lane extremes), all three
   sync modes, both reconvergence modes and warp-trace generation on and
   off.  A second part runs the checked pipeline on seeded,
   Injector-corrupted traces of the workloads whose traces carry [Skip]
   events, so the skip counters of warps that abort mid-replay are pinned
   too.  Regenerate the table with

     dune exec test/test_replay_golden.exe -- --print > test/replay_digests.golden

   only when an output change is intended. *)

open Threadfuser
module Workload = Threadfuser_workloads.Workload
module Registry = Threadfuser_workloads.Registry
module Injector = Threadfuser_fault.Injector
module Report_json = Threadfuser_report.Report_json
module Json = Threadfuser_report.Json
module Flamegraph = Threadfuser_report.Flamegraph
module Tf_error = Threadfuser_util.Tf_error
module Log = Threadfuser_obs.Log

let md5 s = Digest.to_hex (Digest.string s)

let grid_workloads =
  [
    "bfs"; "uncoalesced"; "pigz"; "fluidanimate"; "uniqueid"; "hdsearch-mid";
    "textsearch-mid"; "mcrouter-memcached";
  ]

let skip_workloads = [ "hdsearch-mid"; "textsearch-mid"; "mcrouter-memcached" ]

let warp_sizes = [ 1; 8; 31; 32; 62 ]

let syncs =
  [
    ("serialize", Emulator.Serialize);
    ("serialize-all", Emulator.Serialize_all);
    ("ignore-sync", Emulator.Ignore_sync);
  ]

let reconvs =
  [ ("ipdom", Emulator.Ipdom_reconv); ("fexit", Emulator.Function_exit_reconv) ]

(* pigz's threads each compress a whole block (~12k events), so it runs
   at 16 threads to keep the table quick; the others run 64 threads, which
   fills a 62-lane warp *)
let threads_of = function "pigz" -> 16 | _ -> 64

let blame_json (r : Metrics.report) =
  Json.to_string
    (Json.List
       [
         Json.List (List.map Report_json.of_div_site r.Metrics.divergence_sites);
         Json.List (List.map Report_json.of_mem_site r.Metrics.mem_sites);
       ])

let table () =
  let b = Buffer.create 65536 in
  let line fmt = Printf.kbprintf (fun b -> Buffer.add_char b '\n') b fmt in
  List.iter
    (fun name ->
      let tr = Workload.trace_cpu ~threads:(threads_of name) (Registry.find name) in
      List.iter
        (fun warp_size ->
          List.iter
            (fun (sname, sync) ->
              List.iter
                (fun (rname, reconv) ->
                  List.iter
                    (fun gen_warp_trace ->
                      let options =
                        {
                          Analyzer.default_options with
                          warp_size;
                          sync;
                          reconv;
                          gen_warp_trace;
                        }
                      in
                      let r =
                        Analyzer.analyze ~options tr.Workload.prog
                          tr.Workload.traces
                      in
                      line "%s w%d %s %s wt=%b report=%s blame=%s flame=%s warp=%s"
                        name warp_size sname rname gen_warp_trace
                        (md5 (Report_json.to_string r.Analyzer.report))
                        (md5 (blame_json r.Analyzer.report))
                        (md5 (Flamegraph.folded r.Analyzer.flame))
                        (match r.Analyzer.warp_trace with
                        | None -> "-"
                        | Some wt -> md5 (Warp_serial.to_string wt)))
                    [ false; true ])
                reconvs)
            syncs)
        warp_sizes)
    grid_workloads;
  List.iter
    (fun name ->
      let tr = Workload.trace_cpu ~threads:(threads_of name) (Registry.find name) in
      for seed = 1 to 12 do
        let bad, _ = Injector.inject ~seed ~faults:3 tr.Workload.traces in
        let c = Analyzer.analyze_checked tr.Workload.prog bad in
        let r = c.Analyzer.result.Analyzer.report in
        line "checked %s seed=%d quarantined=%d io=%d spin=%d excluded=%d report=%s diags=%s"
          name seed (List.length c.Analyzer.quarantined) r.Metrics.skipped_io
          r.Metrics.skipped_spin r.Metrics.skipped_excluded
          (md5 (Report_json.to_string r))
          (md5
             (String.concat "\n"
                (List.map Tf_error.to_string c.Analyzer.diagnostics
                @ List.map
                    (fun (tid, d) ->
                      Printf.sprintf "%d %s" tid (Tf_error.to_string d))
                    c.Analyzer.quarantined)))
      done)
    skip_workloads;
  Buffer.contents b

let read_golden () =
  (* dune copies the table beside the test binary *)
  let ic =
    open_in_bin
      (Filename.concat
         (Filename.dirname Sys.executable_name)
         "replay_digests.golden")
  in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_golden () =
  let expect = String.split_on_char '\n' (read_golden ()) in
  let got = String.split_on_char '\n' (table ()) in
  Alcotest.(check int) "table length" (List.length expect) (List.length got);
  List.iter2 (Alcotest.(check string) "digest line") expect got

let () =
  (* the corrupted runs abort warps by design; their warnings are noise *)
  Log.set_quiet ();
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--print" then
    print_string (table ())
  else
    Alcotest.run "replay_golden"
      [
        ( "digests",
          [ Alcotest.test_case "replay digest table" `Quick test_golden ] );
      ]
