(* Golden simulator table.

   Every line of sim_digests.golden must be reproduced exactly: each
   correlation workload at 64 and 512 threads, replayed with warp-trace
   generation on, then every [Gpusim.stats] field under five GPU
   configurations (Fig. 6, tiny, rtx3070, h100, and Fig. 6 with
   loose-round-robin scheduling) and every [Cpusim.stats] field under the
   Fig. 6 and default CPU configurations.  The simulators' hot paths are
   pure performance code; this table pins their results.  Regenerate it
   with

     dune exec test/test_sim_golden.exe -- --print > test/sim_digests.golden

   only when a simulator output change is intended.

   Two allocation gates ride along on the same workloads at 512 threads:
   gpusim allocates under 2 minor words per warp micro-op, and warp-trace
   generation adds under 2 minor words per trace event to an analysis. *)

open Threadfuser
module Workload = Threadfuser_workloads.Workload
module Registry = Threadfuser_workloads.Registry
module Gpusim = Threadfuser_gpusim.Gpusim
module Config = Threadfuser_gpusim.Config
module Cpusim = Threadfuser_cpusim.Cpusim
module Fig6 = Threadfuser_experiments.Fig6

let gpu_configs =
  [
    ("fig6", Fig6.gpu_config);
    ("tiny", Config.tiny);
    ("rtx3070", Config.rtx3070);
    ("h100", Config.h100);
    ("fig6-lrr", { Fig6.gpu_config with Config.scheduler = Config.Lrr });
  ]

let cpu_configs = [ ("fig6", Fig6.cpu_config); ("default", Cpusim.default_config) ]

let thread_counts = [ 64; 512 ]

let table () =
  let b = Buffer.create 16384 in
  let line fmt = Printf.kbprintf (fun b -> Buffer.add_char b '\n') b fmt in
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun threads ->
          let tr = Workload.trace_cpu ~threads w in
          let options = { Analyzer.default_options with gen_warp_trace = true } in
          let r = Analyzer.analyze ~options tr.Workload.prog tr.Workload.traces in
          let wt = Option.get r.Analyzer.warp_trace in
          List.iter
            (fun (cname, config) ->
              let s = Gpusim.run ~config wt in
              line
                "%s t%d gpu=%s cycles=%d instructions=%d thread_instructions=%d \
                 l1=%d/%d l2=%d/%d dram=%d idle=%d stall_dep=%d stall_mem=%d \
                 stall_empty=%d"
                w.Workload.name threads cname s.Gpusim.cycles s.Gpusim.instructions
                s.Gpusim.thread_instructions s.Gpusim.l1_hits s.Gpusim.l1_misses
                s.Gpusim.l2_hits s.Gpusim.l2_misses s.Gpusim.dram_transactions
                s.Gpusim.idle_cycles s.Gpusim.stall_dependency s.Gpusim.stall_memory
                s.Gpusim.stall_empty)
            gpu_configs;
          List.iter
            (fun (cname, config) ->
              let s = Cpusim.run ~config tr.Workload.traces in
              line "%s t%d cpu=%s cycles=%d instructions=%d l1_hit_rate=%h cores=%s"
                w.Workload.name threads cname s.Cpusim.cycles s.Cpusim.instructions
                s.Cpusim.l1_hit_rate
                (String.concat ","
                   (Array.to_list (Array.map string_of_int s.Cpusim.core_cycles))))
            cpu_configs)
        thread_counts)
    Registry.correlation;
  Buffer.contents b

(* The correlation workloads at 512 threads, traced once. *)
let traced_512 = lazy (List.map (fun w -> Workload.trace_cpu ~threads:512 w) Registry.correlation)

let minor_words f =
  let before = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. before)

let analyze ~gen_warp_trace (tr : Workload.traced) =
  let options = { Analyzer.default_options with gen_warp_trace; domains = 1 } in
  Analyzer.analyze ~options tr.Workload.prog tr.Workload.traces

let test_gpusim_alloc () =
  let words = ref 0. and ops = ref 0 in
  List.iter
    (fun tr ->
      let wt = Option.get (analyze ~gen_warp_trace:true tr).Analyzer.warp_trace in
      let _, w = minor_words (fun () -> Gpusim.run ~config:Fig6.gpu_config wt) in
      words := !words +. w;
      ops := !ops + Warp_trace.total_ops wt)
    (Lazy.force traced_512);
  let per_op = !words /. float_of_int !ops in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per warp micro-op < 2" per_op)
    true (per_op < 2.)

let test_warp_trace_alloc () =
  let extra = ref 0. and events = ref 0 in
  List.iter
    (fun (tr : Workload.traced) ->
      let _, off = minor_words (fun () -> analyze ~gen_warp_trace:false tr) in
      let _, on = minor_words (fun () -> analyze ~gen_warp_trace:true tr) in
      extra := !extra +. (on -. off);
      Array.iter
        (fun (t : Threadfuser_trace.Thread_trace.t) ->
          events := !events + Array.length t.Threadfuser_trace.Thread_trace.events)
        tr.Workload.traces)
    (Lazy.force traced_512);
  let per_event = !extra /. float_of_int !events in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f extra minor words per event < 2" per_event)
    true (per_event < 2.)

let read_golden () =
  (* dune copies the table beside the test binary *)
  let ic =
    open_in_bin
      (Filename.concat (Filename.dirname Sys.executable_name) "sim_digests.golden")
  in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_golden () =
  let expect = String.split_on_char '\n' (read_golden ()) in
  let got = String.split_on_char '\n' (table ()) in
  Alcotest.(check int) "table length" (List.length expect) (List.length got);
  List.iter2 (Alcotest.(check string) "simulator line") expect got

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--print" then
    print_string (table ())
  else
    Alcotest.run "sim_golden"
      [
        ("digests", [ Alcotest.test_case "simulator stats table" `Quick test_golden ]);
        ( "allocation",
          [
            Alcotest.test_case "gpusim words per micro-op" `Quick test_gpusim_alloc;
            Alcotest.test_case "warp-trace words per event" `Quick test_warp_trace_alloc;
          ] );
      ]
