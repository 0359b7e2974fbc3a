(* Edge-case tests for the SIMT-stack warp emulator: calls under divergence,
   loops with divergent trip counts, critical sections spanning calls, the
   lock-reconvergence path, and exact issue accounting on hand-computed
   scenarios. *)

open Threadfuser_isa
open Threadfuser_prog
open Threadfuser
module Machine = Threadfuser_machine.Machine
module Thread_trace = Threadfuser_trace.Thread_trace

let analyze ?(warp_size = 4) ?(sync = Emulator.Serialize) ?config funcs ~args =
  let prog = Program.assemble funcs in
  let m = Machine.create ?config prog in
  let r = Machine.run_workers m ~worker:"worker" ~args in
  ( Analyzer.analyze
      ~options:{ Analyzer.default_options with warp_size; sync }
      prog r.Machine.traces,
    r )

(* -- calls inside divergent regions --------------------------------------- *)

let test_call_under_divergence () =
  (* only odd lanes call the helper; the helper must execute with the
     divergent submask, and everyone reconverges after the diamond *)
  let funcs =
    [
      Build.(func "helper" [ mov (reg 2) (imm 1); mov (reg 2) (imm 2); ret ]);
      Build.(
        func "worker"
          [
            mov (reg 1) (reg 0);
            and_ (reg 1) (imm 1);
            if_ Cond.Eq (reg 1) (imm 1) ~then_:[ call "helper" ] ();
            mov (reg 3) (imm 9);
            ret;
          ]);
    ]
  in
  let r, _ = analyze funcs ~args:(Array.init 4 (fun i -> [ i ])) in
  let rep = r.Analyzer.report in
  (* blocks: entry [mov;and;cmp;jcc]=4 | then [call]=1 | helper [mov;mov;ret]=3
     | join [mov;ret]=2.
     issues: 4 (all) + 1 (odd) + 3 (odd, inside helper) + 2 (all) = 10
     thread instrs: 4*4 + 2*1 + 2*3 + 4*2 = 4+16... = 16 + 2 + 6 + 8 = 32 *)
  Alcotest.(check int) "issues" 10 rep.Metrics.issues;
  Alcotest.(check int) "thread instrs" 32 rep.Metrics.thread_instrs;
  (* per-function: helper gets 3 issues, 6 instrs *)
  let helper =
    List.find (fun (f : Metrics.func_stat) -> f.Metrics.func_name = "helper")
      rep.Metrics.per_function
  in
  Alcotest.(check int) "helper issues" 3 helper.Metrics.issues;
  Alcotest.(check int) "helper instrs" 6 helper.Metrics.thread_instrs;
  Alcotest.(check (float 1e-9)) "helper efficiency" 0.5 helper.Metrics.efficiency

let test_nested_calls () =
  let funcs =
    [
      Build.(func "inner" [ add (reg 2) (imm 1); ret ]);
      Build.(func "outer" [ call "inner"; call "inner"; ret ]);
      Build.(func "worker" [ call "outer"; ret ]);
    ]
  in
  let r, _ = analyze funcs ~args:(Array.make 4 []) in
  Alcotest.(check (float 1e-9)) "uniform nested calls" 1.0
    r.Analyzer.report.Metrics.simt_efficiency

let test_recursion () =
  (* recursive countdown: depth differs per lane -> divergence at the base
     case, but every trace must be consumed exactly *)
  let funcs =
    [
      Build.(
        func "countdown"
          [
            if_ Cond.Gt (reg 0) (imm 0)
              ~then_:[ sub (reg 0) (imm 1); call "countdown" ]
              ();
            ret;
          ]);
      Build.(func "worker" [ call "countdown"; ret ]);
    ]
  in
  let r, run = analyze funcs ~args:(Array.init 4 (fun i -> [ i ])) in
  let traced =
    Array.fold_left
      (fun acc t -> acc + (Thread_trace.stats t).Thread_trace.traced_instrs)
      0 run.Machine.traces
  in
  Alcotest.(check int) "conservation under recursion" traced
    r.Analyzer.report.Metrics.thread_instrs;
  Alcotest.(check bool) "divergent" true
    (r.Analyzer.report.Metrics.simt_efficiency < 1.0)

(* -- divergent loop trip counts ------------------------------------------- *)

let test_loop_tail_divergence_exact () =
  (* lane i iterates i+1 times; loop head [cmp;jcc]=2, body [add;add;jmp]=3,
     prologue [mov]=1, epilogue [ret]=1.
     4 lanes, trip counts 1,2,3,4.
     head executes max+1 = 5 times as a warp... trace-driven: head issues:
     5 warp-level executions (masks 4,4,3,2,1 lanes); body issues 4 (masks
     4,3,2,1). *)
  let funcs =
    [
      Build.(
        func "worker"
          [
            mov (reg 1) (imm 0);
            while_ Cond.Le (reg 1) (reg 0) [ add (reg 1) (imm 1); add (reg 2) (imm 2) ];
            ret;
          ]);
    ]
  in
  let r, _ = analyze funcs ~args:(Array.init 4 (fun i -> [ i ])) in
  let rep = r.Analyzer.report in
  (* issues: prologue 1 + head 5*2 + body 4*3 + ret 1 = 24
     instrs: prologue 4 + head (4+4+3+2+1)*2=28 + body (4+3+2+1)*3=30 + ret 4
       = 66 *)
  Alcotest.(check int) "issues" 24 rep.Metrics.issues;
  Alcotest.(check int) "instrs" 66 rep.Metrics.thread_instrs

(* -- locks ----------------------------------------------------------------- *)

let lock_quantum = { Machine.default_config with quantum = 1 }

let test_lock_serialized_instr_accounting () =
  let funcs =
    [
      Build.(
        func "worker"
          [
            lock_acquire (imm 0x500);
            add (reg 1) (imm 1);
            add (reg 1) (imm 2);
            lock_release (imm 0x500);
            ret;
          ]);
    ]
  in
  let r, _ = analyze ~config:lock_quantum funcs ~args:(Array.make 4 []) in
  let rep = r.Analyzer.report in
  Alcotest.(check int) "one conflict group" 1 rep.Metrics.serializations;
  (* each lane's CS = [add;add;lock_release] block (3 instrs) replayed
     scalar: serialized instrs = 4 lanes * 3 *)
  Alcotest.(check int) "serialized instrs" 12 rep.Metrics.serialized_instrs;
  (* issues: acquire block 1 + 4*3 scalar + ret 1 = 14; instrs = 4 + 12 + 4 *)
  Alcotest.(check int) "issues" 14 rep.Metrics.issues;
  Alcotest.(check int) "instrs" 20 rep.Metrics.thread_instrs

let test_lock_disjoint_locks_lockstep () =
  (* every lane uses its own lock: no serialization at all *)
  let funcs =
    [
      Build.(
        func "worker"
          [
            mov (reg 1) (reg 0);
            shl (reg 1) (imm 6);
            add (reg 1) (imm 0x600);
            lock_acquire (reg 1);
            add (reg 2) (imm 1);
            lock_release (reg 1);
            ret;
          ]);
    ]
  in
  let r, _ = analyze ~config:lock_quantum funcs ~args:(Array.init 4 (fun i -> [ i ])) in
  Alcotest.(check int) "no serialization" 0 r.Analyzer.report.Metrics.serializations;
  Alcotest.(check (float 1e-9)) "full lockstep" 1.0
    r.Analyzer.report.Metrics.simt_efficiency

let test_lock_inside_callee () =
  (* the critical section lives in a helper function *)
  let funcs =
    [
      Build.(
        func "locked_add"
          [
            lock_acquire (imm 0x700);
            binop Op.Add (mem ~disp:0x20000 ()) (imm 1);
            lock_release (imm 0x700);
            ret;
          ]);
      Build.(func "worker" [ call "locked_add"; ret ]);
    ]
  in
  let r, run = analyze ~config:lock_quantum funcs ~args:(Array.make 4 []) in
  Alcotest.(check int) "serialized" 1 r.Analyzer.report.Metrics.serializations;
  let traced =
    Array.fold_left
      (fun acc t -> acc + (Thread_trace.stats t).Thread_trace.traced_instrs)
      0 run.Machine.traces
  in
  Alcotest.(check int) "conservation" traced
    r.Analyzer.report.Metrics.thread_instrs

let test_two_conflict_groups () =
  (* lanes 0,1 share lock A; lanes 2,3 share lock B: two groups serialized
     independently (the paper's different-locks-in-parallel rule) *)
  let funcs =
    [
      Build.(
        func "worker"
          [
            mov (reg 1) (reg 0);
            shr (reg 1) (imm 1);
            shl (reg 1) (imm 6);
            add (reg 1) (imm 0x800);
            lock_acquire (reg 1);
            add (reg 2) (imm 1);
            lock_release (reg 1);
            ret;
          ]);
    ]
  in
  let r, _ = analyze ~config:lock_quantum funcs ~args:(Array.init 4 (fun i -> [ i ])) in
  Alcotest.(check int) "two groups" 2 r.Analyzer.report.Metrics.serializations

let test_nested_locks () =
  (* outer lock per lane pair, inner global lock: the scalar critical
     section replay must consume the nested acquire/release transparently *)
  let funcs =
    [
      Build.(
        func "worker"
          [
            (* outer lock: lanes {0,1} share one, {2,3} another *)
            mov (reg 1) (reg 0);
            shr (reg 1) (imm 1);
            shl (reg 1) (imm 6);
            add (reg 1) (imm 0xa00);
            lock_acquire (reg 1);
            add (reg 2) (imm 1);
            (* inner: one global lock *)
            lock_acquire (imm 0xb00);
            binop Op.Add (mem ~disp:0x20000 ()) (imm 1);
            lock_release (imm 0xb00);
            add (reg 2) (imm 2);
            lock_release (reg 1);
            ret;
          ]);
    ]
  in
  let r, run = analyze ~config:lock_quantum funcs ~args:(Array.init 4 (fun i -> [ i ])) in
  let traced =
    Array.fold_left
      (fun acc t -> acc + (Thread_trace.stats t).Thread_trace.traced_instrs)
      0 run.Machine.traces
  in
  Alcotest.(check int) "conservation with nested locks" traced
    r.Analyzer.report.Metrics.thread_instrs;
  Alcotest.(check bool) "serialized" true (r.Analyzer.report.Metrics.serializations >= 2);
  (* machine-side: all four increments landed *)
  let mem = Threadfuser_machine.Machine.memory (fst (let prog = Threadfuser_prog.Program.assemble funcs in
    let m = Threadfuser_machine.Machine.create ~config:lock_quantum prog in
    let _ = Threadfuser_machine.Machine.run_workers m ~worker:"worker" ~args:(Array.init 4 (fun i -> [ i ])) in
    (m, ()))) in
  Alcotest.(check int) "increments" 4 (Threadfuser_machine.Memory.load_i64 mem 0x20000)

let test_lock_in_loop () =
  (* a lock acquired every iteration: serialization repeats per round and
     the loop still reconverges *)
  let funcs =
    [
      Build.(
        func "worker"
          [
            mov (reg 1) (imm 0);
            while_ Cond.Lt (reg 1) (imm 3)
              [
                lock_acquire (imm 0xc00);
                binop Op.Add (mem ~disp:0x20010 ()) (imm 1);
                lock_release (imm 0xc00);
                add (reg 1) (imm 1);
              ];
            ret;
          ]);
    ]
  in
  let r, run = analyze ~config:lock_quantum funcs ~args:(Array.make 4 []) in
  let traced =
    Array.fold_left
      (fun acc t -> acc + (Thread_trace.stats t).Thread_trace.traced_instrs)
      0 run.Machine.traces
  in
  Alcotest.(check int) "conservation" traced r.Analyzer.report.Metrics.thread_instrs;
  Alcotest.(check int) "three rounds serialized" 3
    r.Analyzer.report.Metrics.serializations;
  Alcotest.(check int) "acquires" 12 r.Analyzer.report.Metrics.lock_acquires

let test_sync_ignore_no_serialization () =
  let funcs =
    [
      Build.(
        func "worker"
          [
            lock_acquire (imm 0x900);
            add (reg 1) (imm 1);
            lock_release (imm 0x900);
            ret;
          ]);
    ]
  in
  let r, _ =
    analyze ~sync:Emulator.Ignore_sync ~config:lock_quantum funcs
      ~args:(Array.make 4 [])
  in
  Alcotest.(check int) "no serialization recorded" 0
    r.Analyzer.report.Metrics.serializations;
  Alcotest.(check (float 1e-9)) "lockstep" 1.0
    r.Analyzer.report.Metrics.simt_efficiency

(* -- tail warps and single-lane warps -------------------------------------- *)

let test_tail_warp_efficiency () =
  (* 3 uniform threads in a 4-wide warp: efficiency = 3/4 by Eq. 1 *)
  let funcs = [ Build.(func "worker" [ mov (reg 1) (imm 5); ret ]) ] in
  let r, _ = analyze funcs ~args:(Array.make 3 []) in
  Alcotest.(check (float 1e-9)) "3/4" 0.75 r.Analyzer.report.Metrics.simt_efficiency

let test_single_lane_warp () =
  let funcs = [ Build.(func "worker" [ mov (reg 1) (imm 5); ret ]) ] in
  let r, _ = analyze ~warp_size:32 funcs ~args:(Array.make 1 []) in
  Alcotest.(check (float 1e-9)) "1/32" (1. /. 32.)
    r.Analyzer.report.Metrics.simt_efficiency

(* -- switch-like multi-way divergence -------------------------------------- *)

let test_four_way_divergence () =
  (* four lanes, four distinct paths of different lengths, common join *)
  let arm k = Build.(List.init k (fun _ -> add (reg 2) (imm 1)) @ [ jmp "join" ]) in
  let funcs =
    [
      Build.(
        func "worker"
          (List.concat
             [
               [ cmp (reg 0) (imm 1); jcc Cond.Eq "a1" ];
               [ cmp (reg 0) (imm 2); jcc Cond.Eq "a2" ];
               [ cmp (reg 0) (imm 3); jcc Cond.Eq "a3" ];
               arm 1;
               [ label "a1" ];
               arm 2;
               [ label "a2" ];
               arm 3;
               [ label "a3" ];
               arm 4;
               [ label "join"; ret ];
             ]));
    ]
  in
  let r, run = analyze funcs ~args:(Array.init 4 (fun i -> [ i ])) in
  let traced =
    Array.fold_left
      (fun acc t -> acc + (Thread_trace.stats t).Thread_trace.traced_instrs)
      0 run.Machine.traces
  in
  Alcotest.(check int) "conservation" traced
    r.Analyzer.report.Metrics.thread_instrs;
  Alcotest.(check bool) "divergent but not fully serial" true
    (let e = r.Analyzer.report.Metrics.simt_efficiency in
     e > 0.25 && e < 1.0)

(* -- per-warp state does not outlive an aborted warp ---------------------- *)

(* Every counter an emulator accumulates, flattened. *)
let counters (e : Emulator.t) =
  let acc = ref [] in
  let add v = acc := v :: !acc in
  List.iter add
    [
      e.Emulator.issues;
      e.Emulator.thread_instrs;
      e.Emulator.lock_acquires;
      e.Emulator.serializations;
      e.Emulator.serialized_instrs;
      e.Emulator.barrier_syncs;
      e.Emulator.skipped_io;
      e.Emulator.skipped_spin;
      e.Emulator.skipped_excluded;
    ];
  Array.iter add e.Emulator.site_issues;
  Array.iter add e.Emulator.site_instrs;
  Emulator.iter_div_sites e (fun ~fid:_ ~block:_ c ->
      add c.Emulator.sc_splits;
      add c.Emulator.sc_lost);
  Coalesce.iter_sites e.Emulator.coalesce (fun ~fid:_ ~block:_ ~ioff:_ c ->
      List.iter add
        [
          c.Coalesce.a_issues;
          c.Coalesce.a_txns;
          c.Coalesce.a_min_txns;
          c.Coalesce.a_stack_excess;
          c.Coalesce.a_heap_excess;
          c.Coalesce.a_global_excess;
        ]);
  Array.of_list (List.rev !acc)

(* Ten threads of a program with a uniform loop, a store and a shared
   critical section, so every warp regroups uniformly, coalesces and
   serializes.  Warp 0 (threads 0-1) is the one made to abort; warps 1
   and 2 hold four lanes each. *)
let leak_setup () =
  let funcs =
    [
      Build.(
        func "worker"
          [
            mov (reg 1) (reg 0);
            mov (reg 3) (imm 0);
            for_up ~i:2 ~from_:(imm 0) ~below:(imm 3)
              [
                add (reg 3) (reg 1);
                mov (mem ~scale:8 ~index:1 ~disp:0x20000 ()) (reg 3);
              ];
            mov (reg 11) (imm 0xd00);
            lock_acquire (reg 11);
            add (reg 4) (imm 1);
            lock_release (reg 11);
            if_ Cond.Lt (reg 1) (imm 3) ~then_:[ add (reg 3) (imm 1) ] ();
            ret;
          ]);
    ]
  in
  let prog = Program.assemble funcs in
  let m = Machine.create prog in
  let r = Machine.run_workers m ~worker:"worker" ~args:(Array.init 10 (fun i -> [ i ])) in
  let traces = r.Machine.traces in
  let ipdoms = Threadfuser_cfg.(Ipdom.of_dcfgs (Dcfg.of_traces prog traces)) in
  let config =
    {
      Emulator.warp_size = 4;
      sync = Emulator.Serialize;
      reconv = Emulator.Ipdom_reconv;
      record_timeline = false;
    }
  in
  (prog, ipdoms, config, traces)

(* Replay the aborting warp 0 ([abort] raises, or the test fails), then
   warps 1 and 2 through the same emulator: each later warp must add
   exactly what a fresh emulator's replay of it counts. *)
let check_no_leak ~abort () =
  let prog, ipdoms, config, traces = leak_setup () in
  let lanes tids = Array.map (fun tid -> traces.(tid)) tids in
  let emu = Emulator.create prog ipdoms config in
  abort emu traces;
  List.iter
    (fun (warp_id, tids) ->
      let before = counters emu in
      Emulator.run_warp emu ~warp_id (lanes tids);
      let added = Array.map2 ( - ) (counters emu) before in
      let fresh = Emulator.create prog ipdoms config in
      Emulator.run_warp fresh ~warp_id (lanes tids);
      Alcotest.(check (array int))
        (Printf.sprintf "warp %d counts as if replayed alone" warp_id)
        (counters fresh) added)
    [ (1, [| 2; 3; 4; 5 |]); (2, [| 6; 7; 8; 9 |]) ]

(* Warp 0 aborts right after staging its first block: lane 1's trace
   ends there, so regrouping that block finds no next block. *)
let test_no_leak_after_staging () =
  check_no_leak
    ~abort:(fun emu traces ->
      let cut = Thread_trace.of_events 1 [| (Thread_trace.to_events traces.(1)).(0) |] in
      match Emulator.run_warp emu ~warp_id:0 [| traces.(0); cut |] with
      | () -> Alcotest.fail "truncated warp replayed"
      | exception Emulator.Emulation_error _ -> ())
    ()

(* Warp 0 runs out of fuel after one step: its first block regrouped
   uniformly, so the next block's lanes are already staged. *)
let test_no_leak_after_uniform_regroup () =
  check_no_leak
    ~abort:(fun emu traces ->
      match
        Emulator.run_warp ~fuel:1 emu ~warp_id:0 [| traces.(0); traces.(1) |]
      with
      | () -> Alcotest.fail "one step of fuel replayed the warp"
      | exception Threadfuser_util.Tf_error.Error d ->
          Alcotest.(check bool) "timeout" true
            (d.Threadfuser_util.Tf_error.kind = Threadfuser_util.Tf_error.Timeout))
    ()

(* A warp wider than the emulator's warp size is refused before any
   lane is read. *)
let test_more_lanes_than_warp_size () =
  let prog, ipdoms, config, traces = leak_setup () in
  let emu = Emulator.create prog ipdoms config in
  Alcotest.check_raises "five lanes at warp size 4"
    (Invalid_argument "Emulator.run_warp: more lanes than the warp size")
    (fun () -> Emulator.run_warp emu ~warp_id:0 (Array.sub traces 0 5));
  Alcotest.(check int) "nothing counted" 0 emu.Emulator.issues

(* A trace naming a block past its function's end must fail, not charge
   the next function's block that shares its site index. *)
let test_block_past_function_end () =
  let funcs =
    [
      Build.(
        func "worker"
          [
            mov (reg 1) (reg 0);
            if_ Cond.Eq (reg 1) (imm 5) ~then_:[ add (reg 2) (imm 1) ] ();
            call "other";
            ret;
          ]);
      Build.(
        func "other"
          [
            if_ Cond.Eq (reg 1) (imm 1) ~then_:[ add (reg 2) (imm 1) ] ();
            if_ Cond.Eq (reg 1) (imm 2) ~then_:[ add (reg 2) (imm 2) ] ();
            ret;
          ]);
    ]
  in
  let prog = Program.assemble funcs in
  let m = Machine.create prog in
  let r = Machine.run_workers m ~worker:"worker" ~args:[| [ 0 ] |] in
  let ipdoms =
    Threadfuser_cfg.(Ipdom.of_dcfgs (Dcfg.of_traces prog r.Machine.traces))
  in
  let n_worker = Program.block_count (Program.func prog 0) in
  let block b =
    Threadfuser_trace.Event.Block
      { func = 0; block = b; n_instr = 1; accesses = [||] }
  in
  let bogus = Thread_trace.of_events 0 [| block 0; block (n_worker + 1) |] in
  let emu =
    Emulator.create prog ipdoms
      {
        Emulator.warp_size = 1;
        sync = Emulator.Serialize;
        reconv = Emulator.Ipdom_reconv;
        record_timeline = false;
      }
  in
  match Emulator.run_warp emu ~warp_id:0 [| bogus |] with
  | () -> Alcotest.fail "replayed a block past the function's end"
  | exception Invalid_argument _ ->
      Alcotest.(check int) "only block 0 counted" 0
        (Array.fold_left ( + ) 0 emu.Emulator.site_issues
        - emu.Emulator.site_issues.(0))

(* -- skip accounting ------------------------------------------------------- *)

(* Skip events carry no control flow: the replay absorbs them into the
   emulator's skip totals when a lane's read reaches them (trailing ones
   at the end-of-warp check) and counts everything else as it would
   without them. *)
let test_skips_absorbed_before_call () =
  let funcs =
    [
      Build.(func "helper" [ mov (reg 2) (imm 1); ret ]);
      Build.(
        func "worker"
          [ mov (reg 1) (reg 0); call "helper"; mov (reg 3) (imm 9); ret ]);
    ]
  in
  let prog = Program.assemble funcs in
  let m = Machine.create prog in
  let r = Machine.run_workers m ~worker:"worker" ~args:[| [ 0 ] |] in
  let plain = r.Machine.traces.(0) in
  let module Event = Threadfuser_trace.Event in
  let skip reason n_instr = Event.Skip { reason; n_instr } in
  let skipped =
    Array.to_list (Thread_trace.to_events plain)
    |> List.concat_map (function
         | Event.Call _ as e -> [ skip Event.Io 10; skip Event.Spin 5; e ]
         | e -> [ e ])
    |> fun evs -> Array.of_list (evs @ [ skip Event.Excluded 3 ])
  in
  let ipdoms =
    Threadfuser_cfg.(Ipdom.of_dcfgs (Dcfg.of_traces prog [| plain |]))
  in
  let replay trace =
    let emu =
      Emulator.create prog ipdoms
        {
          Emulator.warp_size = 1;
          sync = Emulator.Serialize;
          reconv = Emulator.Ipdom_reconv;
          record_timeline = false;
        }
    in
    Emulator.run_warp emu ~warp_id:0 [| trace |];
    emu
  in
  let base = replay plain and emu = replay (Thread_trace.of_events 0 skipped) in
  Alcotest.(check int) "io counted" 10 emu.Emulator.skipped_io;
  Alcotest.(check int) "spin counted" 5 emu.Emulator.skipped_spin;
  Alcotest.(check int) "trailing excluded counted" 3
    emu.Emulator.skipped_excluded;
  Alcotest.(check int) "issues unchanged" base.Emulator.issues
    emu.Emulator.issues;
  Alcotest.(check int) "instrs unchanged" base.Emulator.thread_instrs
    emu.Emulator.thread_instrs

let () =
  Alcotest.run "emulator"
    [
      ( "calls",
        [
          Alcotest.test_case "call under divergence" `Quick test_call_under_divergence;
          Alcotest.test_case "nested calls" `Quick test_nested_calls;
          Alcotest.test_case "recursion" `Quick test_recursion;
        ] );
      ( "loops",
        [ Alcotest.test_case "tail divergence exact" `Quick test_loop_tail_divergence_exact ] );
      ( "locks",
        [
          Alcotest.test_case "serialized accounting" `Quick
            test_lock_serialized_instr_accounting;
          Alcotest.test_case "disjoint locks" `Quick test_lock_disjoint_locks_lockstep;
          Alcotest.test_case "lock inside callee" `Quick test_lock_inside_callee;
          Alcotest.test_case "two groups" `Quick test_two_conflict_groups;
          Alcotest.test_case "ignore mode" `Quick test_sync_ignore_no_serialization;
          Alcotest.test_case "nested locks" `Quick test_nested_locks;
          Alcotest.test_case "lock in loop" `Quick test_lock_in_loop;
        ] );
      ( "warp shapes",
        [
          Alcotest.test_case "tail warp" `Quick test_tail_warp_efficiency;
          Alcotest.test_case "single lane" `Quick test_single_lane_warp;
          Alcotest.test_case "four-way divergence" `Quick test_four_way_divergence;
        ] );
      ( "skips",
        [
          Alcotest.test_case "absorbed before a call" `Quick
            test_skips_absorbed_before_call;
        ] );
      ( "aborted warp",
        [
          Alcotest.test_case "no leak after staging" `Quick test_no_leak_after_staging;
          Alcotest.test_case "no leak after uniform regroup" `Quick
            test_no_leak_after_uniform_regroup;
          Alcotest.test_case "more lanes than the warp size" `Quick
            test_more_lanes_than_warp_size;
          Alcotest.test_case "block past its function's end" `Quick
            test_block_past_function_end;
        ] );
    ]
