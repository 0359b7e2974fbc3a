(* Tests for the SIMT analyzer core: warp emulation, efficiency math,
   coalescing, synchronization serialization, warp-trace generation. *)

open Threadfuser_isa
open Threadfuser_prog
open Threadfuser
module Machine = Threadfuser_machine.Machine
module Thread_trace = Threadfuser_trace.Thread_trace

let trace_workload ?config funcs ~worker ~args =
  let prog = Program.assemble funcs in
  let m = Machine.create ?config prog in
  let r = Machine.run_workers m ~worker ~args in
  (prog, r.Machine.traces)

let analyze ?(options = Analyzer.default_options) funcs ~worker ~args =
  let prog, traces = trace_workload funcs ~worker ~args in
  Analyzer.analyze ~options prog traces

(* diverge on arg parity: then = 2 instrs, else = 1 instr, join = ret *)
let diamond =
  Build.(
    func "worker"
      [
        mov (reg 1) (reg 0);
        and_ (reg 1) (imm 1);
        if_ Cond.Eq (reg 1) (imm 0)
          ~then_:[ mov (reg 2) (imm 10) ]
          ~else_:[ mov (reg 2) (imm 20) ]
          ();
        ret;
      ])

let two_lane_options = { Analyzer.default_options with warp_size = 2 }

let test_uniform_efficiency_is_one () =
  let r =
    analyze ~options:two_lane_options [ diamond ] ~worker:"worker"
      ~args:[| [ 0 ]; [ 2 ] |]
  in
  Alcotest.(check (float 1e-9)) "efficiency" 1.0 r.Analyzer.report.Metrics.simt_efficiency

let test_diamond_efficiency_hand_computed () =
  (* entry 4 instrs both lanes; then 2 instrs lane0; else 1 instr lane1;
     join 1 instr both.  issues = 4+2+1+1 = 8; thread instrs = 8+2+1+2 = 13;
     efficiency = 13 / (8*2). *)
  let r =
    analyze ~options:two_lane_options [ diamond ] ~worker:"worker"
      ~args:[| [ 0 ]; [ 1 ] |]
  in
  let rep = r.Analyzer.report in
  Alcotest.(check int) "issues" 8 rep.Metrics.issues;
  Alcotest.(check int) "thread instrs" 13 rep.Metrics.thread_instrs;
  Alcotest.(check (float 1e-9)) "efficiency" (13.0 /. 16.0)
    rep.Metrics.simt_efficiency

let test_instruction_conservation () =
  let prog, traces =
    trace_workload [ diamond ] ~worker:"worker"
      ~args:(Array.init 16 (fun i -> [ i ]))
  in
  let r = Analyzer.analyze ~options:{ Analyzer.default_options with warp_size = 8 } prog traces in
  let traced =
    Array.fold_left
      (fun acc t -> acc + (Thread_trace.stats t).Thread_trace.traced_instrs)
      0 traces
  in
  Alcotest.(check int) "thread instrs conserved" traced
    r.Analyzer.report.Metrics.thread_instrs

let test_efficiency_decreases_with_warp_size () =
  (* data-dependent loop: thread i iterates i times *)
  let worker =
    Build.(
      func "worker"
        [
          mov (reg 1) (imm 0);
          while_ Cond.Lt (reg 1) (reg 0) [ add (reg 1) (imm 1) ];
          ret;
        ])
  in
  let prog, traces =
    trace_workload [ worker ] ~worker:"worker"
      ~args:(Array.init 32 (fun i -> [ i ]))
  in
  let eff w =
    let r = Analyzer.analyze ~options:{ Analyzer.default_options with warp_size = w } prog traces in
    r.Analyzer.report.Metrics.simt_efficiency
  in
  let e8 = eff 8 and e16 = eff 16 and e32 = eff 32 in
  Alcotest.(check bool) "e8 >= e16" true (e8 >= e16 -. 1e-9);
  Alcotest.(check bool) "e16 >= e32" true (e16 >= e32 -. 1e-9)

let global_array = 0x20000

let vec_worker ~stride =
  (* load a[stride * tid], add 1, store back *)
  Build.(
    func "worker"
      [
        mov (reg 1) (reg 0);
        mul (reg 1) (imm stride);
        add (reg 1) (imm global_array);
        mov (reg 2) (mem ~base:1 ());
        add (reg 2) (imm 1);
        mov (mem ~base:1 ()) (reg 2);
        ret;
      ])

let test_coalesced_accesses () =
  let r =
    analyze
      ~options:{ Analyzer.default_options with warp_size = 4 }
      [ vec_worker ~stride:8 ] ~worker:"worker"
      ~args:(Array.init 4 (fun i -> [ i ]))
  in
  let g = r.Analyzer.report.Metrics.global_mem in
  (* 4 lanes x 8 bytes contiguous = exactly one 32 B transaction per
     instruction: one load instr + one store instr => 2 txns *)
  Alcotest.(check int) "txns" 2 g.Metrics.txns;
  Alcotest.(check int) "mem instrs" 2 g.Metrics.mem_issues

let test_divergent_accesses () =
  let r =
    analyze
      ~options:{ Analyzer.default_options with warp_size = 4 }
      [ vec_worker ~stride:64 ] ~worker:"worker"
      ~args:(Array.init 4 (fun i -> [ i ]))
  in
  let g = r.Analyzer.report.Metrics.global_mem in
  (* 64 B apart: every lane its own transaction *)
  Alcotest.(check int) "txns" 8 g.Metrics.txns;
  Alcotest.(check (float 1e-9)) "txns per instr" 4.0 g.Metrics.txns_per_instr

let lock_addr = 0x30000

let locked_worker =
  Build.(
    func "worker"
      [
        lock_acquire (imm lock_addr);
        mov (reg 1) (imm 0x30100);
        mov (reg 2) (mem ~base:1 ());
        add (reg 2) (imm 1);
        mov (mem ~base:1 ()) (reg 2);
        lock_release (imm lock_addr);
        ret;
      ])

let locked_traces () =
  trace_workload
    ~config:{ Machine.default_config with quantum = 1 }
    [ locked_worker ] ~worker:"worker" ~args:(Array.make 4 [])

let test_lock_serialization_counted () =
  let prog, traces = locked_traces () in
  let r =
    Analyzer.analyze
      ~options:{ Analyzer.default_options with warp_size = 4 }
      prog traces
  in
  let rep = r.Analyzer.report in
  Alcotest.(check int) "one serialization" 1 rep.Metrics.serializations;
  Alcotest.(check bool) "serialized instrs" true (rep.Metrics.serialized_instrs > 0);
  Alcotest.(check bool) "efficiency below 1" true
    (rep.Metrics.simt_efficiency < 0.999);
  Alcotest.(check int) "acquires" 4 rep.Metrics.lock_acquires

let test_lock_ignore_mode_full_efficiency () =
  let prog, traces = locked_traces () in
  let r =
    Analyzer.analyze
      ~options:
        { Analyzer.default_options with warp_size = 4; sync = Emulator.Ignore_sync }
      prog traces
  in
  Alcotest.(check (float 1e-9)) "lockstep when locks ignored" 1.0
    r.Analyzer.report.Metrics.simt_efficiency

let test_spin_skip_reported () =
  let prog, traces = locked_traces () in
  let r =
    Analyzer.analyze ~options:{ Analyzer.default_options with warp_size = 4 } prog traces
  in
  Alcotest.(check bool) "spin skipped > 0" true
    (r.Analyzer.report.Metrics.skipped_spin > 0);
  Alcotest.(check bool) "traced fraction < 1" true
    (Metrics.traced_fraction r.Analyzer.report < 1.0)

let test_io_skip_reported () =
  let worker = Build.(func "worker" [ io_in (imm 300); mov (reg 1) (imm 1); ret ]) in
  let r = analyze [ worker ] ~worker:"worker" ~args:(Array.make 2 []) in
  Alcotest.(check int) "io instrs" 600 r.Analyzer.report.Metrics.skipped_io

let test_per_function_breakdown () =
  let funcs =
    [
      Build.(
        func "hot"
          [
            mov (reg 1) (imm 0);
            for_up ~i:2 ~from_:(imm 0) ~below:(imm 20) [ add (reg 1) (reg 2) ];
            ret;
          ]);
      Build.(func "worker" [ call "hot"; ret ]);
    ]
  in
  let r =
    analyze ~options:two_lane_options funcs ~worker:"worker" ~args:[| []; [] |]
  in
  let per_fn = r.Analyzer.report.Metrics.per_function in
  Alcotest.(check int) "two functions" 2 (List.length per_fn);
  let hot = List.find (fun (f : Metrics.func_stat) -> f.func_name = "hot") per_fn in
  let worker = List.find (fun (f : Metrics.func_stat) -> f.func_name = "worker") per_fn in
  Alcotest.(check bool) "hot dominates" true
    (hot.Metrics.instr_share > worker.Metrics.instr_share);
  let share_sum =
    List.fold_left (fun acc (f : Metrics.func_stat) -> acc +. f.instr_share) 0.0 per_fn
  in
  Alcotest.(check (float 1e-9)) "shares sum to 1" 1.0 share_sum

let test_function_exit_reconv_ablation () =
  (* branchy loop body: IPDOM reconvergence should beat exit-only *)
  let worker =
    Build.(
      func "worker"
        [
          mov (reg 1) (imm 0);
          mov (reg 3) (imm 0);
          for_up ~i:2 ~from_:(imm 0) ~below:(imm 8)
            [
              mov (reg 4) (reg 0);
              add (reg 4) (reg 2);
              and_ (reg 4) (imm 1);
              if_ Cond.Eq (reg 4) (imm 0)
                ~then_:[ add (reg 1) (imm 3) ]
                ~else_:[ add (reg 3) (imm 5) ]
                ();
            ];
          ret;
        ])
  in
  let prog, traces =
    trace_workload [ worker ] ~worker:"worker"
      ~args:(Array.init 8 (fun i -> [ i ]))
  in
  let eff reconv =
    (Analyzer.analyze
       ~options:{ Analyzer.default_options with warp_size = 8; reconv }
       prog traces)
      .Analyzer.report
      .Metrics.simt_efficiency
  in
  let ipdom_eff = eff Emulator.Ipdom_reconv in
  let exit_eff = eff Emulator.Function_exit_reconv in
  Alcotest.(check bool) "ipdom >= exit-only" true (ipdom_eff >= exit_eff -. 1e-9);
  Alcotest.(check bool) "ipdom strictly better here" true (ipdom_eff > exit_eff)

let test_warp_trace_generated () =
  let r =
    analyze
      ~options:
        { Analyzer.default_options with warp_size = 4; gen_warp_trace = true }
      [ vec_worker ~stride:8 ] ~worker:"worker"
      ~args:(Array.init 4 (fun i -> [ i ]))
  in
  match r.Analyzer.warp_trace with
  | None -> Alcotest.fail "no warp trace"
  | Some wt ->
      Alcotest.(check int) "one warp" 1 (Array.length wt.Warp_trace.warps);
      let ops = wt.Warp_trace.warps.(0).Warp_trace.ops in
      Alcotest.(check bool) "ops emitted" true (Array.length ops > 0);
      (* find the global load micro-op and check its lane addresses *)
      let loads =
        Array.to_list ops
        |> List.filter_map (fun (e : Warp_trace.entry) ->
               match e.Warp_trace.op.Warp_trace.mem with
               | Some m when not m.Warp_trace.is_store -> Some m
               | _ -> None)
      in
      Alcotest.(check int) "one load mop" 1 (List.length loads);
      let m = List.hd loads in
      Alcotest.(check (array int)) "lane addresses"
        (Array.init 4 (fun i -> global_array + (8 * i)))
        m.Warp_trace.addrs

let test_batching_policies_partition () =
  let prog, traces =
    trace_workload [ diamond ] ~worker:"worker"
      ~args:(Array.init 13 (fun i -> [ i ]))
  in
  ignore prog;
  List.iter
    (fun policy ->
      let warps = Batching.form policy ~warp_size:4 traces in
      let all = Array.to_list warps |> List.concat_map Array.to_list in
      Alcotest.(check (list int))
        (Batching.to_string policy ^ " covers all tids")
        (List.init 13 (fun i -> i))
        (List.sort compare all))
    Batching.all

let test_strided_batching_structure () =
  let prog, traces =
    trace_workload [ diamond ] ~worker:"worker"
      ~args:(Array.init 8 (fun i -> [ i ]))
  in
  ignore prog;
  let warps = Batching.form Batching.Strided ~warp_size:4 traces in
  (* 8 threads, width 4 -> 2 warps; warp w holds threads w, w+2, w+4, w+6 *)
  Alcotest.(check int) "two warps" 2 (Array.length warps);
  Alcotest.(check (array int)) "warp 0 dealt" [| 0; 2; 4; 6 |] warps.(0);
  Alcotest.(check (array int)) "warp 1 dealt" [| 1; 3; 5; 7 |] warps.(1)

let test_signature_batching_improves_sorted_divergence () =
  (* interleaved short/long threads: signature batching should group them
     and beat sequential batching *)
  let worker =
    Build.(
      func "worker"
        [
          mov (reg 1) (imm 0);
          while_ Cond.Lt (reg 1) (reg 0) [ add (reg 1) (imm 1) ];
          ret;
        ])
  in
  let args = Array.init 32 (fun i -> [ (if i mod 2 = 0 then 2 else 40) ]) in
  let prog, traces = trace_workload [ worker ] ~worker:"worker" ~args in
  let eff batching =
    (Analyzer.analyze
       ~options:{ Analyzer.default_options with warp_size = 16; batching }
       prog traces)
      .Analyzer.report
      .Metrics.simt_efficiency
  in
  Alcotest.(check bool) "signature >= sequential" true
    (eff Batching.Signature_greedy >= eff Batching.Sequential)

let test_max_width_warp () =
  (* the mask supports up to 62 lanes; a 62-wide warp must work end to end *)
  let r =
    analyze
      ~options:{ Analyzer.default_options with warp_size = Mask.max_lanes }
      [ diamond ] ~worker:"worker"
      ~args:(Array.init Mask.max_lanes (fun i -> [ i ]))
  in
  let rep = r.Analyzer.report in
  Alcotest.(check int) "one warp" 1 rep.Metrics.n_warps;
  Alcotest.(check bool) "divergent but sane" true
    (rep.Metrics.simt_efficiency > 0.5 && rep.Metrics.simt_efficiency < 1.0)

let prop_efficiency_bounds =
  QCheck.Test.make ~name:"efficiency in (0,1]" ~count:50
    QCheck.(pair (int_range 1 30) (int_range 1 6))
    (fun (n_threads, log_w) ->
      (* 2..32 lanes, and the widest warp the masks allow in place of 64 *)
      let warp_size = min Mask.max_lanes (1 lsl log_w) in
      let prog, traces =
        trace_workload [ diamond ] ~worker:"worker"
          ~args:(Array.init n_threads (fun i -> [ i * 3 ]))
      in
      let r =
        Analyzer.analyze
          ~options:{ Analyzer.default_options with warp_size }
          prog traces
      in
      let e = r.Analyzer.report.Metrics.simt_efficiency in
      e > 0.0 && e <= 1.0 +. 1e-9)

let () =
  Alcotest.run "analyzer"
    [
      ( "efficiency",
        [
          Alcotest.test_case "uniform = 1.0" `Quick test_uniform_efficiency_is_one;
          Alcotest.test_case "diamond hand-computed" `Quick
            test_diamond_efficiency_hand_computed;
          Alcotest.test_case "instruction conservation" `Quick
            test_instruction_conservation;
          Alcotest.test_case "warp size monotone" `Quick
            test_efficiency_decreases_with_warp_size;
          Alcotest.test_case "62-lane warp" `Quick test_max_width_warp;
          QCheck_alcotest.to_alcotest prop_efficiency_bounds;
        ] );
      ( "memory",
        [
          Alcotest.test_case "coalesced" `Quick test_coalesced_accesses;
          Alcotest.test_case "divergent" `Quick test_divergent_accesses;
        ] );
      ( "sync",
        [
          Alcotest.test_case "serialization" `Quick test_lock_serialization_counted;
          Alcotest.test_case "ignore mode" `Quick test_lock_ignore_mode_full_efficiency;
          Alcotest.test_case "spin reported" `Quick test_spin_skip_reported;
          Alcotest.test_case "io reported" `Quick test_io_skip_reported;
        ] );
      ( "reports",
        [
          Alcotest.test_case "per-function" `Quick test_per_function_breakdown;
          Alcotest.test_case "reconv ablation" `Quick
            test_function_exit_reconv_ablation;
          Alcotest.test_case "warp trace" `Quick test_warp_trace_generated;
        ] );
      ( "batching",
        [
          Alcotest.test_case "partition" `Quick test_batching_policies_partition;
          Alcotest.test_case "strided structure" `Quick test_strided_batching_structure;
          Alcotest.test_case "signature grouping" `Quick
            test_signature_batching_improves_sorted_divergence;
        ] );
    ]
