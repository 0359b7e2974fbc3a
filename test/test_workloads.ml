(* End-to-end tests over the Table I workload suite: every workload runs
   through the full machine -> trace -> analyzer pipeline, and the paper's
   qualitative landscape (which workloads are SIMT-friendly, which are
   hostile, who skips I/O, who serializes on locks) holds. *)

open Threadfuser
module W = Threadfuser_workloads.Workload
module Registry = Threadfuser_workloads.Registry
module Thread_trace = Threadfuser_trace.Thread_trace

let report ?options ?threads name =
  (W.analyze ?options ?threads (Registry.find name)).Analyzer.report

let efficiency ?options ?threads name =
  (report ?options ?threads name).Metrics.simt_efficiency

let test_catalog_complete () =
  Alcotest.(check int) "36 workloads" 36 (List.length Registry.all);
  Alcotest.(check int) "11 correlation workloads" 11
    (List.length Registry.correlation);
  Alcotest.(check int) "13 microservices" 13 (List.length Registry.microservices);
  let names = Registry.names () in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_all_workloads_analyze () =
  List.iter
    (fun (w : W.t) ->
      let r = W.analyze w in
      let e = r.Analyzer.report.Metrics.simt_efficiency in
      Alcotest.(check bool)
        (Printf.sprintf "%s efficiency in (0,1]" w.W.name)
        true
        (e > 0.0 && e <= 1.0 +. 1e-9);
      Alcotest.(check bool)
        (Printf.sprintf "%s executed instructions" w.W.name)
        true
        (r.Analyzer.report.Metrics.thread_instrs > 0))
    (Registry.hdsearch_mid_fixed :: Registry.all)

let test_friendly_workloads_high_efficiency () =
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " >= 95%")
        true
        (efficiency name >= 0.95))
    [ "md5"; "nbody"; "vectoradd"; "uncoalesced"; "swaptions"; "vips"; "rotate"; "nn" ]

let test_hostile_workloads_low_efficiency () =
  List.iter
    (fun (name, bound) ->
      let e = efficiency name in
      Alcotest.(check bool)
        (Printf.sprintf "%s <= %.0f%% (got %.1f%%)" name (100. *. bound) (100. *. e))
        true (e <= bound))
    [ ("pigz", 0.45); ("bfs", 0.35); ("hdsearch-mid", 0.20); ("uniqueid", 0.45) ]

let test_fig7_fix_story () =
  let broken = efficiency "hdsearch-mid" in
  let fixed = efficiency "hdsearch-mid-fixed" in
  Alcotest.(check bool) "fixed >= 85%" true (fixed >= 0.85);
  Alcotest.(check bool) "fix helps at least 5x" true (fixed >= 5.0 *. broken)

let test_getpoint_dominates_hdsearch () =
  let r = report "hdsearch-mid" in
  let getpoint =
    List.find
      (fun (f : Metrics.func_stat) -> f.Metrics.func_name = "getpoint")
      r.Metrics.per_function
  in
  Alcotest.(check bool) "getpoint > 30% of instructions" true
    (getpoint.Metrics.instr_share > 0.3);
  Alcotest.(check bool) "getpoint inefficient" true
    (getpoint.Metrics.efficiency < 0.5);
  (* the allocator called from vector::push_back serializes hard *)
  let malloc =
    List.find
      (fun (f : Metrics.func_stat) -> f.Metrics.func_name = "__malloc")
      r.Metrics.per_function
  in
  Alcotest.(check bool) "allocator serialized" true
    (malloc.Metrics.efficiency < 0.1);
  Alcotest.(check bool) "allocator dominates issues" true
    (malloc.Metrics.issues > getpoint.Metrics.issues)

let test_warp_width_sensitivity () =
  List.iter
    (fun name ->
      let eff w =
        efficiency ~options:{ Analyzer.default_options with warp_size = w } name
      in
      let e8 = eff 8 and e16 = eff 16 and e32 = eff 32 in
      Alcotest.(check bool)
        (Printf.sprintf "%s monotone (%.2f %.2f %.2f)" name e8 e16 e32)
        true
        (e8 >= e16 -. 1e-9 && e16 >= e32 -. 1e-9))
    [ "pigz"; "bfs"; "b+tree"; "freqmine" ]

let test_md5_insensitive_to_warp_width () =
  let eff w = efficiency ~options:{ Analyzer.default_options with warp_size = w } "md5" in
  Alcotest.(check bool) "md5 varies < 5% across widths" true
    (eff 8 -. eff 32 < 0.05)

let test_microservices_skip_io () =
  List.iter
    (fun (w : W.t) ->
      let r = W.analyze w in
      Alcotest.(check bool)
        (w.W.name ^ " skips I/O instructions")
        true
        (r.Analyzer.report.Metrics.skipped_io > 0);
      Alcotest.(check bool)
        (w.W.name ^ " traced fraction < 1")
        true
        (Metrics.traced_fraction r.Analyzer.report < 1.0))
    Registry.microservices

let test_compute_workloads_fully_traced () =
  List.iter
    (fun name ->
      let r = report name in
      Alcotest.(check (float 1e-9)) (name ^ " fully traced") 1.0
        (Metrics.traced_fraction r))
    [ "md5"; "nbody"; "blackscholes" ]

let test_lock_serialization_visible () =
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " serializes") true
        ((report name).Metrics.serializations > 0))
    [ "hdsearch-mid"; "uniqueid"; "urlshort"; "mcrouter-memcached" ]

let test_ignore_sync_raises_uniqueid () =
  let ser = efficiency "uniqueid" in
  let ign =
    efficiency
      ~options:{ Analyzer.default_options with sync = Emulator.Ignore_sync }
      "uniqueid"
  in
  Alcotest.(check bool)
    (Printf.sprintf "ignore (%.2f) > serialize (%.2f)" ign ser)
    true (ign > ser)

let test_memory_divergence_landscape () =
  (* the coalesced microbenchmark is near the 4-transaction ideal for
     8-byte accesses; its strided twin is at the 32-transaction worst *)
  let txn name = Metrics.txns_per_mem_instr (report name) in
  Alcotest.(check bool) "vectoradd near ideal" true (txn "vectoradd" <= 8.5);
  Alcotest.(check (float 0.01)) "uncoalesced worst case" 32.0 (txn "uncoalesced")

let test_instruction_conservation () =
  List.iter
    (fun name ->
      let w = Registry.find name in
      let tr = W.trace_cpu w in
      let r = Analyzer.analyze tr.W.prog tr.W.traces in
      let traced =
        Array.fold_left
          (fun acc t -> acc + (Thread_trace.stats t).Thread_trace.traced_instrs)
          0 tr.W.traces
      in
      Alcotest.(check int) (name ^ " conserves instructions") traced
        r.Analyzer.report.Metrics.thread_instrs)
    [ "bfs"; "hdsearch-mid"; "pigz" ]

let test_cuda_variants_trace () =
  List.iter
    (fun (w : W.t) ->
      match W.trace_cuda w with
      | None -> Alcotest.fail (w.W.name ^ " missing CUDA variant")
      | Some tr ->
          let r = Analyzer.analyze tr.W.prog tr.W.traces in
          Alcotest.(check bool)
            (w.W.name ^ " CUDA variant efficiency in (0,1]")
            true
            (r.Analyzer.report.Metrics.simt_efficiency > 0.0))
    Registry.correlation

let test_determinism () =
  let r1 = report "mcrouter-memcached" and r2 = report "mcrouter-memcached" in
  Alcotest.(check int) "same issues" r1.Metrics.issues r2.Metrics.issues;
  Alcotest.(check int) "same txns" r1.Metrics.total_mem_txns r2.Metrics.total_mem_txns

let test_thread_count_override () =
  let r = report ~threads:16 "vectoradd" in
  Alcotest.(check int) "threads" 16 r.Metrics.n_threads;
  Alcotest.(check int) "one warp" 1 r.Metrics.n_warps

let test_serialized_traces_analyze_identically () =
  (* the paper's workflow: capture a trace file once, analyze it later —
     the report must be identical to analyzing in-memory traces *)
  let w = Registry.find "b+tree" in
  let tr = W.trace_cpu w in
  let roundtripped =
    Threadfuser_trace.Pack.decode (Threadfuser_trace.Pack.encode tr.W.traces)
  in
  let a = Analyzer.analyze tr.W.prog tr.W.traces in
  let b = Analyzer.analyze tr.W.prog roundtripped in
  Alcotest.(check int) "issues" a.Analyzer.report.Metrics.issues
    b.Analyzer.report.Metrics.issues;
  Alcotest.(check int) "instrs" a.Analyzer.report.Metrics.thread_instrs
    b.Analyzer.report.Metrics.thread_instrs;
  Alcotest.(check int) "txns" a.Analyzer.report.Metrics.total_mem_txns
    b.Analyzer.report.Metrics.total_mem_txns

let test_scale_parameter () =
  (* scale grows the synthetic inputs; the analysis must still hold its
     qualitative shape *)
  List.iter
    (fun name ->
      let base = efficiency name in
      let w = Registry.find name in
      let scaled = (W.analyze ~scale:2 w).Analyzer.report in
      Alcotest.(check bool)
        (Printf.sprintf "%s scale=2 runs (%.2f vs %.2f)" name
           scaled.Metrics.simt_efficiency base)
        true
        (scaled.Metrics.simt_efficiency > 0.0
        && abs_float (scaled.Metrics.simt_efficiency -. base) < 0.15))
    [ "bfs"; "nn"; "streamcluster"; "pagerank" ]

let test_find_unknown_raises () =
  match Registry.find "no-such-workload" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let () =
  Alcotest.run "workloads"
    [
      ( "catalog",
        [
          Alcotest.test_case "complete" `Quick test_catalog_complete;
          Alcotest.test_case "all analyze" `Slow test_all_workloads_analyze;
          Alcotest.test_case "unknown name" `Quick test_find_unknown_raises;
          Alcotest.test_case "thread override" `Quick test_thread_count_override;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "trace-file invariance" `Quick
            test_serialized_traces_analyze_identically;
          Alcotest.test_case "scale parameter" `Quick test_scale_parameter;
        ] );
      ( "efficiency landscape",
        [
          Alcotest.test_case "friendly high" `Slow test_friendly_workloads_high_efficiency;
          Alcotest.test_case "hostile low" `Slow test_hostile_workloads_low_efficiency;
          Alcotest.test_case "warp width sensitivity" `Slow test_warp_width_sensitivity;
          Alcotest.test_case "md5 insensitive" `Slow test_md5_insensitive_to_warp_width;
          Alcotest.test_case "conservation" `Slow test_instruction_conservation;
        ] );
      ( "fig7 case study",
        [
          Alcotest.test_case "fix story" `Slow test_fig7_fix_story;
          Alcotest.test_case "getpoint dominates" `Slow test_getpoint_dominates_hdsearch;
        ] );
      ( "microservices",
        [
          Alcotest.test_case "skip io" `Slow test_microservices_skip_io;
          Alcotest.test_case "compute fully traced" `Quick test_compute_workloads_fully_traced;
          Alcotest.test_case "lock serialization" `Slow test_lock_serialization_visible;
          Alcotest.test_case "ignore sync" `Quick test_ignore_sync_raises_uniqueid;
        ] );
      ( "memory",
        [ Alcotest.test_case "divergence landscape" `Quick test_memory_divergence_landscape ] );
      ( "correlation set",
        [ Alcotest.test_case "cuda variants" `Slow test_cuda_variants_trace ] );
    ]
