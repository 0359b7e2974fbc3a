(* Tests for OpenMP-style team barriers: machine semantics (phase ordering,
   early-exit teams, spin accounting), analyzer behaviour (lockstep
   crossing, counting), serialization, and compiler-pass transparency. *)

open Threadfuser_isa
open Threadfuser_prog
open Threadfuser
module Machine = Threadfuser_machine.Machine
module Memory = Threadfuser_machine.Memory
module Compiler = Threadfuser_compiler.Compiler
module Thread_trace = Threadfuser_trace.Thread_trace
module Pack = Threadfuser_trace.Pack

let bar = 0x50000

let phase_a = 0x20000

let out = 0x60000

(* worker(tid, n): phase 1 publishes a[tid]; the barrier orders the phases;
   phase 2 reads the *right* neighbor's value, which only exists if the
   barrier really waited for everyone. *)
let phased_worker =
  Build.(
    func "worker"
      [
        mov (reg 6) (reg 0);
        mov (reg 7) (reg 6);
        mul (reg 7) (imm 31);
        add (reg 7) (imm 1);
        mov (mem ~scale:8 ~index:6 ~disp:phase_a ()) (reg 7);
        barrier (imm bar);
        (* read neighbor (tid + 1) mod n *)
        mov (reg 8) (reg 6);
        add (reg 8) (imm 1);
        rem (reg 8) (reg 1);
        mov (reg 9) (mem ~scale:8 ~index:8 ~disp:phase_a ());
        mov (mem ~scale:8 ~index:6 ~disp:out ()) (reg 9);
        ret;
      ])

let run_phased ?(config = { Machine.default_config with quantum = 1 }) n =
  let prog = Program.assemble [ phased_worker ] in
  let m = Machine.create ~config prog in
  let r =
    Machine.run_workers m ~worker:"worker" ~args:(Array.init n (fun i -> [ i; n ]))
  in
  (m, prog, r)

let test_barrier_orders_phases () =
  let n = 8 in
  let m, _, _ = run_phased n in
  let mem = Machine.memory m in
  for tid = 0 to n - 1 do
    let neighbor = (tid + 1) mod n in
    Alcotest.(check int)
      (Printf.sprintf "thread %d saw neighbor's phase-1 value" tid)
      ((neighbor * 31) + 1)
      (Memory.load_i64 mem (out + (8 * tid)))
  done

let test_barrier_event_traced () =
  let _, _, r = run_phased 4 in
  Array.iter
    (fun t ->
      Alcotest.(check int) "one barrier per thread" 1
        (Thread_trace.stats t).Thread_trace.barriers)
    r.Machine.traces

let test_barrier_waiters_spin () =
  let _, _, r = run_phased 8 in
  let spin =
    Array.fold_left
      (fun acc t -> acc + (Thread_trace.stats t).Thread_trace.skipped_spin)
      0 r.Machine.traces
  in
  Alcotest.(check bool) "waiting threads spun" true (spin > 0)

let test_single_thread_passes () =
  let m, _, _ = run_phased 1 in
  Alcotest.(check int) "self neighbor" 1
    (Memory.load_i64 (Machine.memory m) out)

let test_early_finisher_releases () =
  (* odd threads return before the barrier; the even team must still pass
     once the odd ones have finished *)
  let worker =
    Build.(
      func "worker"
        [
          mov (reg 6) (reg 0);
          and_ (reg 6) (imm 1);
          if_ Cond.Eq (reg 6) (imm 1) ~then_:[ ret ] ();
          barrier (imm bar);
          mov (mem ~scale:8 ~index:0 ~disp:out ()) (imm 1);
          ret;
        ])
  in
  let prog = Program.assemble [ worker ] in
  let m = Machine.create ~config:{ Machine.default_config with quantum = 1 } prog in
  let _ = Machine.run_workers m ~worker:"worker" ~args:(Array.init 4 (fun i -> [ i ])) in
  Alcotest.(check int) "even thread passed" 1
    (Memory.load_i64 (Machine.memory m) (out + 16))

let test_analyzer_barrier_lockstep () =
  let _, prog, r = run_phased 8 in
  let res =
    Analyzer.analyze ~options:{ Analyzer.default_options with warp_size = 8 }
      prog r.Machine.traces
  in
  let rep = res.Analyzer.report in
  (* a warp-uniform barrier costs nothing: full lockstep *)
  Alcotest.(check (float 1e-9)) "efficiency 1.0" 1.0 rep.Metrics.simt_efficiency;
  Alcotest.(check int) "one warp-level crossing" 1 rep.Metrics.barrier_syncs

let test_analyzer_barrier_across_warps () =
  let _, prog, r = run_phased 16 in
  let res =
    Analyzer.analyze ~options:{ Analyzer.default_options with warp_size = 8 }
      prog r.Machine.traces
  in
  Alcotest.(check int) "two warps, two crossings" 2
    res.Analyzer.report.Metrics.barrier_syncs

let test_serial_roundtrip_with_barrier () =
  let _, _, r = run_phased 2 in
  let back = Pack.decode (Pack.encode r.Machine.traces) in
  Array.iteri
    (fun i (t : Thread_trace.t) ->
      Alcotest.(check bool)
        (Printf.sprintf "thread %d identical" i)
        true
        (t = back.(i)))
    r.Machine.traces

let test_compiler_passes_preserve_barrier_program () =
  let surface = [ phased_worker ] in
  let n = 6 in
  let run level =
    let prog = Compiler.compile level surface in
    let m = Machine.create ~config:{ Machine.default_config with quantum = 1 } prog in
    let _ =
      Machine.run_workers m ~worker:"worker" ~args:(Array.init n (fun i -> [ i; n ]))
    in
    Memory.load_array64 (Machine.memory m) out n
  in
  let reference = run Compiler.O0 in
  List.iter
    (fun level ->
      Alcotest.(check bool)
        (Compiler.to_string level ^ " agrees")
        true
        (run level = reference))
    [ Compiler.O1; Compiler.O2; Compiler.O3 ]

let () =
  Alcotest.run "barrier"
    [
      ( "machine",
        [
          Alcotest.test_case "orders phases" `Quick test_barrier_orders_phases;
          Alcotest.test_case "event traced" `Quick test_barrier_event_traced;
          Alcotest.test_case "waiters spin" `Quick test_barrier_waiters_spin;
          Alcotest.test_case "single thread" `Quick test_single_thread_passes;
          Alcotest.test_case "early finisher" `Quick test_early_finisher_releases;
        ] );
      ( "analyzer",
        [
          Alcotest.test_case "lockstep crossing" `Quick test_analyzer_barrier_lockstep;
          Alcotest.test_case "across warps" `Quick test_analyzer_barrier_across_warps;
        ] );
      ( "integration",
        [
          Alcotest.test_case "serialization" `Quick test_serial_roundtrip_with_barrier;
          Alcotest.test_case "compiler passes" `Quick
            test_compiler_passes_preserve_barrier_program;
        ] );
    ]
