(* Tests for selective tracing (paper §III): excluded functions execute
   normally but vanish from traces, appearing as one Skip[Excluded] record
   per region. *)

open Threadfuser_prog
open Threadfuser
module Machine = Threadfuser_machine.Machine
module Memory = Threadfuser_machine.Memory
module Event = Threadfuser_trace.Event
module Thread_trace = Threadfuser_trace.Thread_trace
module W = Threadfuser_workloads.Workload
module Registry = Threadfuser_workloads.Registry

let funcs =
  [
    Build.(func "leafish" [ add (reg 2) (imm 1); add (reg 2) (imm 2); ret ]);
    Build.(
      func "library"
        [ call "leafish"; mul (reg 2) (imm 3); call "leafish"; ret ]);
    Build.(
      func "worker"
        [
          mov (reg 2) (reg 0);
          call "library";
          mov (mem ~scale:8 ~index:0 ~disp:0x20000 ()) (reg 2);
          ret;
        ]);
  ]

let run ?(exclude = []) () =
  let prog = Program.assemble funcs in
  let config = { Machine.default_config with untraced_functions = exclude } in
  let m = Machine.create ~config prog in
  let r = Machine.run_workers m ~worker:"worker" ~args:[| [ 5 ]; [ 7 ] |] in
  (m, prog, r)

let test_semantics_unchanged () =
  let m1, _, _ = run () in
  let m2, _, _ = run ~exclude:[ "library" ] () in
  (* ((tid + 1 + 2) * 3) + 1 + 2 *)
  List.iter
    (fun tid ->
      let expect = (((tid + 3) * 3) + 3) in
      Alcotest.(check int) "traced run" expect
        (Memory.load_i64 (Machine.memory m1) (0x20000 + (8 * tid)));
      Alcotest.(check int) "excluded run" expect
        (Memory.load_i64 (Machine.memory m2) (0x20000 + (8 * tid))))
    [ 5; 7 ]

let test_trace_shape () =
  let _, _, r = run ~exclude:[ "library" ] () in
  Array.iter
    (fun (t : Thread_trace.t) ->
      let kinds =
        Array.to_list (Thread_trace.to_events t)
        |> List.map (function
             | Event.Block _ -> "B"
             | Event.Call _ -> "C"
             | Event.Return -> "R"
             | Event.Skip { reason = Event.Excluded; _ } -> "X"
             | Event.Skip _ -> "S"
             | _ -> "?")
      in
      (* worker block (ending in call), one excluded record, continuation,
         return — no Call/Return markers for the library *)
      Alcotest.(check (list string)) "shape" [ "B"; "X"; "B"; "R" ] kinds)
    r.Machine.traces

let test_excluded_instruction_count () =
  let _, _, r = run ~exclude:[ "library" ] () in
  let s = Thread_trace.stats r.Machine.traces.(0) in
  (* library: [call]=1 [mul;call]=2 [ret]=1 plus 2x leafish (3 each) = 10 *)
  Alcotest.(check int) "excluded instrs" 10 s.Thread_trace.skipped_excluded;
  (* worker keeps its own 2+2 = 4 instructions *)
  Alcotest.(check int) "traced instrs" 4 s.Thread_trace.traced_instrs

let test_exclude_nested_only () =
  (* excluding only the leaf keeps the library's own code traced *)
  let _, _, r = run ~exclude:[ "leafish" ] () in
  let s = Thread_trace.stats r.Machine.traces.(0) in
  Alcotest.(check int) "leaf instrs excluded" 6 s.Thread_trace.skipped_excluded;
  Alcotest.(check int) "library + worker traced" 8 s.Thread_trace.traced_instrs

let test_analyzer_handles_excluded_calls () =
  let _, prog, r = run ~exclude:[ "library" ] () in
  let res = Analyzer.analyze ~options:{ Analyzer.default_options with warp_size = 2 } prog r.Machine.traces in
  let rep = res.Analyzer.report in
  Alcotest.(check int) "only worker appears" 1
    (List.length rep.Metrics.per_function);
  Alcotest.(check int) "excluded counted" 20 rep.Metrics.skipped_excluded;
  Alcotest.(check (float 1e-9)) "uniform lanes stay lockstep" 1.0
    rep.Metrics.simt_efficiency;
  Alcotest.(check bool) "traced fraction < 1" true
    (Metrics.traced_fraction rep < 1.0)

let test_exclusion_hides_allocator_noise () =
  (* the paper's use case: carve a library call out of a hot microservice *)
  let full = W.analyze (Registry.find "hdsearch-mid") in
  let carved = W.analyze ~exclude:[ "vector" ] (Registry.find "hdsearch-mid") in
  let names (r : Analyzer.result) =
    List.map (fun (f : Metrics.func_stat) -> f.Metrics.func_name)
      r.Analyzer.report.Metrics.per_function
  in
  Alcotest.(check bool) "vector visible in full" true
    (List.mem "vector" (names full));
  Alcotest.(check bool) "vector carved out" false (List.mem "vector" (names carved));
  Alcotest.(check bool) "its callee __malloc carved too" false
    (List.mem "__malloc" (names carved));
  Alcotest.(check bool) "allocator serialization gone" true
    (carved.Analyzer.report.Metrics.serializations = 0
    && full.Analyzer.report.Metrics.serializations > 0);
  Alcotest.(check bool) "divergence remains (getpoint)" true
    (carved.Analyzer.report.Metrics.simt_efficiency < 0.6)

let test_unknown_exclusion_rejected () =
  let prog = Program.assemble funcs in
  let config = { Machine.default_config with untraced_functions = [ "ghost" ] } in
  match Machine.create ~config prog with
  | exception Program.Assembly_error _ -> ()
  | _ -> Alcotest.fail "expected error for unknown function"

let () =
  Alcotest.run "exclusion"
    [
      ( "machine",
        [
          Alcotest.test_case "semantics unchanged" `Quick test_semantics_unchanged;
          Alcotest.test_case "trace shape" `Quick test_trace_shape;
          Alcotest.test_case "instruction count" `Quick test_excluded_instruction_count;
          Alcotest.test_case "nested only" `Quick test_exclude_nested_only;
          Alcotest.test_case "unknown function" `Quick test_unknown_exclusion_rejected;
        ] );
      ( "analyzer",
        [
          Alcotest.test_case "excluded calls" `Quick test_analyzer_handles_excluded_calls;
          Alcotest.test_case "allocator carve-out" `Quick
            test_exclusion_hides_allocator_noise;
        ] );
    ]
