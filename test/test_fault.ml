(* Tests for the fault-injection subsystem and the graceful-degradation
   (quarantine) pipeline: seeded injector determinism, typed deadlock /
   livelock verdicts from the replay watchdogs, coverage accounting on
   partial reports, and a fuzz smoke run over a registered workload. *)

open Threadfuser_prog
open Threadfuser
module Machine = Threadfuser_machine.Machine
module Thread_trace = Threadfuser_trace.Thread_trace
module Event = Threadfuser_trace.Event
module Serial = Threadfuser_trace.Serial
module Tf_error = Threadfuser_util.Tf_error
module Injector = Threadfuser_fault.Injector
module Fuzz = Threadfuser_fault.Fuzz
module Registry = Threadfuser_workloads.Registry
module W = Threadfuser_workloads.Workload

(* A worker with a critical section; run on a quantum-1 machine so the
   lanes genuinely contend for the lock. *)
let lock_funcs =
  [
    Build.(
      func "worker"
        [
          lock_acquire (imm 0x500);
          add (reg 2) (imm 1);
          add (reg 2) (imm 2);
          lock_release (imm 0x500);
          ret;
        ]);
  ]

let traced_lock_workload ?(n = 4) () =
  let prog = Program.assemble lock_funcs in
  let m =
    Machine.create ~config:{ Machine.default_config with quantum = 1 } prog
  in
  let r = Machine.run_workers m ~worker:"worker" ~args:(Array.make n []) in
  (prog, r.Machine.traces)

let options = { Analyzer.default_options with warp_size = 4 }

(* Dropping a Lock_rel must surface as a typed Deadlock: the trusting
   pipeline raises it, the checked pipeline quarantines and reports. *)
let test_deadlock_verdict () =
  let prog, traces = traced_lock_workload () in
  (* drop the first Lock_rel of thread 0 *)
  let t0 = traces.(0) in
  let events =
    Array.of_list
      (List.filter
         (function Event.Lock_rel _ -> false | _ -> true)
         (Array.to_list t0.Thread_trace.events))
  in
  let damaged = Array.copy traces in
  damaged.(0) <- { t0 with Thread_trace.events };
  (match Analyzer.analyze ~options prog damaged with
  | exception Tf_error.Error d ->
      Alcotest.(check string)
        "typed deadlock" "deadlock"
        (Tf_error.kind_name d.Tf_error.kind)
  | exception e ->
      Alcotest.failf "expected Tf_error deadlock, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "dropped unlock accepted by trusting pipeline");
  (* checked pipeline: no exception, explicit quarantine + partial report *)
  let c = Analyzer.analyze_checked ~options prog damaged in
  let cov = c.Analyzer.result.Analyzer.report.Metrics.coverage in
  Alcotest.(check bool) "quarantined something" true (c.Analyzer.quarantined <> []);
  Alcotest.(check int) "coverage adds up" cov.Metrics.threads_total
    (cov.Metrics.threads_analyzed + cov.Metrics.threads_quarantined);
  Alcotest.(check bool) "report degraded" true
    (Metrics.degraded c.Analyzer.result.Analyzer.report)

(* A fuel bound far below the trace size must end in failed warps, never a
   hang or an escape. *)
let test_fuel_watchdog () =
  let prog, traces = traced_lock_workload () in
  (match Analyzer.analyze_checked ~options ~fuel:3 prog traces with
  | c ->
      let cov = c.Analyzer.result.Analyzer.report.Metrics.coverage in
      Alcotest.(check bool) "starved replay quarantines" true
        (cov.Metrics.warps_failed > 0 || cov.Metrics.threads_quarantined > 0);
      Alcotest.(check int) "coverage adds up" cov.Metrics.threads_total
        (cov.Metrics.threads_analyzed + cov.Metrics.threads_quarantined)
  | exception e ->
      Alcotest.failf "fuel exhaustion escaped: %s" (Printexc.to_string e));
  (* and with the default (generous) fuel the same traces analyze fully *)
  let c = Analyzer.analyze_checked ~options prog traces in
  Alcotest.(check bool) "clean under default fuel" false
    (Metrics.degraded c.Analyzer.result.Analyzer.report)

(* Same seed -> byte-identical corruption; different seed -> (almost
   surely) different damage. *)
let test_injector_deterministic () =
  let _, traces = traced_lock_workload () in
  let serial t =
    Serial.to_string t
  in
  let d1, a1 = Injector.inject ~seed:42 traces in
  let d2, a2 = Injector.inject ~seed:42 traces in
  Alcotest.(check string) "event faults deterministic" (serial d1) (serial d2);
  Alcotest.(check int) "same faults applied" (List.length a1)
    (List.length a2);
  let bytes = Serial.to_string traces in
  let b1, _ = Injector.corrupt_bytes ~seed:7 bytes in
  let b2, _ = Injector.corrupt_bytes ~seed:7 bytes in
  Alcotest.(check string) "byte faults deterministic" b1 b2;
  Alcotest.(check bool) "corruption changed something" true (b1 <> bytes)

(* The acceptance contract in miniature: a seeded campaign over a real
   registered workload must end every run in a clean report, a typed
   rejection, or an accounted partial report — zero uncaught exceptions. *)
let test_fuzz_smoke () =
  let w = Registry.find "vectoradd" in
  let tr = W.trace_cpu ~threads:8 w in
  let bytes = Serial.to_string tr.W.traces in
  let t = Fuzz.run ~seed0:1 ~runs:100 ~prog:tr.W.prog ~bytes () in
  Alcotest.(check int) "all runs classified" 100 t.Fuzz.runs;
  (match t.Fuzz.uncaught with
  | [] -> ()
  | (seed, m) :: _ ->
      Alcotest.failf "seed %d escaped the checked pipeline: %s" seed m);
  Alcotest.(check bool) "campaign exercised the reject path" true
    (t.Fuzz.rejected > 0)

(* Quarantining every thread must still produce a (fully degraded) report
   rather than an exception. *)
let test_all_quarantined () =
  let prog, traces = traced_lock_workload ~n:2 () in
  let garbage =
    Array.map
      (fun (t : Thread_trace.t) ->
        { t with Thread_trace.events = [| Event.Return; Event.Return |] })
      traces
  in
  let c = Analyzer.analyze_checked ~options prog garbage in
  let cov = c.Analyzer.result.Analyzer.report.Metrics.coverage in
  Alcotest.(check int) "none analyzed" 0 cov.Metrics.threads_analyzed;
  Alcotest.(check int) "all quarantined" 2 cov.Metrics.threads_quarantined

(* Quarantine is linear in the thread count.  Every thread here releases
   a lock it never took: at a few bytes per thread, 20 000 of them fit in
   a pack file of about 140 KB, and a per-thread scan of the diagnostic
   list takes seconds on such a set. *)
let test_quarantine_linear () =
  let prog = Program.assemble lock_funcs in
  let n = 20_000 in
  let traces =
    Array.init n (fun tid ->
        { Thread_trace.tid; events = [| Event.Lock_rel 0x10; Event.Return |] })
  in
  let t0 = Unix.gettimeofday () in
  let c = Analyzer.analyze_checked ~options prog traces in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "every thread quarantined" n
    (List.length c.Analyzer.quarantined);
  Alcotest.(check bool)
    (Printf.sprintf "quarantined in %.2f s (bound 2 s)" dt)
    true (dt < 2.0)

let () =
  Alcotest.run "fault"
    [
      ( "fault",
        [
          Alcotest.test_case "deadlock verdict" `Quick test_deadlock_verdict;
          Alcotest.test_case "fuel watchdog" `Quick test_fuel_watchdog;
          Alcotest.test_case "injector determinism" `Quick
            test_injector_deterministic;
          Alcotest.test_case "all threads quarantined" `Quick
            test_all_quarantined;
          Alcotest.test_case "20k bad threads quarantine in linear time"
            `Quick test_quarantine_linear;
          Alcotest.test_case "fuzz smoke (100 seeds)" `Quick test_fuzz_smoke;
        ] );
    ]
