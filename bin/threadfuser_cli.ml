(* The ThreadFuser command-line tool.

     threadfuser list                         workload catalog (Table I)
     threadfuser analyze pigz -w 16 -O O3     efficiency + divergence report
     threadfuser sweep pigz                   warp-width sweep
     threadfuser trace bfs -o bfs.tfpack      capture a TFPACK1 trace file
     threadfuser check bfs.tfpack bfs         validate a trace file
     threadfuser fuzz bfs -n 1000             seeded corruption campaign
     threadfuser simulate vectoradd           cycle-level speedup projection
     threadfuser profile bfs --trace-out t.json   phase timing + event trace
     threadfuser correlate                    the Fig. 5 correlation study
     threadfuser blame hdsearch-mid           divergence bottleneck ranking
     threadfuser diff base.json new.json      report regression gate
     threadfuser suite bfs pigz -j 4          supervised batch analysis
     threadfuser suite --resume               finish an interrupted batch
     threadfuser suite --cache                skip jobs via the artifact cache
     threadfuser cache stat|verify|scrub|gc   artifact-store maintenance
     threadfuser serve bfs --socket tf.sock   streaming analysis daemon
     threadfuser client bfs.tfpack            stream a trace to the daemon
     threadfuser stat --prom                  scrape a live daemon's stats
     threadfuser top --interval 2             rolling daemon rate lines

   Observability (docs/observability.md): --log-level / TF_LOG control the
   structured logger; --trace-out writes a Perfetto-loadable Chrome trace
   of the run; --metrics-out writes a Prometheus text exposition.

   Exit codes: 0 success, 1 usage error, 2 corrupt input, 3 analysis
   degraded (partial report / validation errors), 5 diff regression,
   6 daemon busy. *)

open Cmdliner
module W = Threadfuser_workloads.Workload
module Registry = Threadfuser_workloads.Registry
module Compiler = Threadfuser_compiler.Compiler
module Analyzer = Threadfuser.Analyzer
module Metrics = Threadfuser.Metrics
module Serial = Threadfuser_trace.Serial
module Pack = Threadfuser_trace.Pack
module Trace_file = Threadfuser_trace.Trace_file
module Validate = Threadfuser_trace.Validate
module Cache = Threadfuser_cache.Cache
module Tf_error = Threadfuser_util.Tf_error
module Injector = Threadfuser_fault.Injector
module Fuzz = Threadfuser_fault.Fuzz
module E = Threadfuser_experiments
module Obs = Threadfuser_obs.Obs
module Log = Threadfuser_obs.Log
module Trace_export = Threadfuser_obs.Trace_export
module Prom = Threadfuser_obs.Prom
module Runner = Threadfuser_runner.Runner
module Serve = Threadfuser_serve.Serve
module Sclient = Threadfuser_serve.Client
module Sprotocol = Threadfuser_serve.Protocol
module Stream = Threadfuser_trace.Stream
module Json = Threadfuser_report.Json
module Flamegraph = Threadfuser_report.Flamegraph
module Report_diff = Threadfuser_report.Report_diff

let exit_usage = 1
let exit_corrupt = 2
let exit_degraded = 3
let exit_regression = 5
let exit_busy = 6

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                     *)

let unknown_workload_msg s =
  match Registry.suggest s with
  | Some hint -> Printf.sprintf "unknown workload %s (did you mean %s?)" s hint
  | None -> Printf.sprintf "unknown workload %s (try `threadfuser list')" s

let workload_arg =
  let parse s =
    match Registry.find_opt s with
    | Some w -> Ok w
    | None -> Error (`Msg (unknown_workload_msg s))
  in
  let print ppf (w : W.t) = Fmt.string ppf w.W.name in
  Arg.conv (parse, print)

(* Like [workload_arg] but yields the registry name: suite jobs are keyed
   by name, resolved again inside each isolated attempt. *)
let workload_name_arg =
  let parse s =
    match Registry.find_opt s with
    | Some w -> Ok w.W.name
    | None -> Error (`Msg (unknown_workload_msg s))
  in
  Arg.conv (parse, Fmt.string)

let workload_pos =
  Arg.(
    required
    & pos 0 (some workload_arg) None
    & info [] ~docv:"WORKLOAD" ~doc:"Workload name (see $(b,threadfuser list)).")

(* A warp width the emulator can replay: its active masks pack the lanes
   into an int. *)
let warp_size_conv =
  let parse s =
    match int_of_string_opt s with
    | Some w when w >= 1 && w <= Threadfuser.Mask.max_lanes -> Ok w
    | _ ->
        Error
          (`Msg
             (Printf.sprintf "warp size must be an integer in 1..%d, got %S"
                Threadfuser.Mask.max_lanes s))
  in
  Arg.conv (parse, Fmt.int)

let warp_size =
  Arg.(
    value & opt warp_size_conv 32
    & info [ "w"; "warp-size" ] ~docv:"N"
        ~doc:
          (Printf.sprintf "Warp width (lanes per warp), 1..%d."
             Threadfuser.Mask.max_lanes))

let level_arg =
  let parse s =
    match Compiler.of_string s with
    | Some l -> Ok l
    | None -> Error (`Msg "optimization level must be O0, O1, O2 or O3")
  in
  Arg.conv (parse, Compiler.pp_level)

let opt_level =
  Arg.(
    value
    & opt level_arg Compiler.O1
    & info [ "O"; "opt-level" ] ~docv:"LEVEL"
        ~doc:"CPU compiler optimization level (O0..O3).")

let threads =
  Arg.(
    value
    & opt (some int) None
    & info [ "t"; "threads" ] ~docv:"N" ~doc:"Number of SIMT threads to trace.")

let ignore_sync =
  Arg.(
    value & flag
    & info [ "ignore-sync" ]
        ~doc:"Do not serialize same-lock lanes (lock-oblivious estimate).")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "domains" ] ~docv:"N"
        ~doc:
          "Replay worker domains.  Warps shard across an OCaml 5 domain \
           pool with a deterministic reduction, so any value yields \
           byte-identical reports.  Defaults to $(b,TF_DOMAINS) when set, \
           else 1 (sequential).")

let resolve_domains = function
  | Some d -> max 1 d
  | None -> Threadfuser.Par_replay.default_domains ()

let options ~warp_size ~ignore_sync =
  {
    Analyzer.default_options with
    warp_size;
    sync = (if ignore_sync then Threadfuser.Emulator.Ignore_sync else Threadfuser.Emulator.Serialize);
  }

(* ------------------------------------------------------------------ *)
(* Observability plumbing: --log-level, --trace-out, --metrics-out      *)

let log_level_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "quiet" | "off" | "none" -> Ok `Quiet
    | s -> (
        match Log.of_string s with
        | Some l -> Ok (`Level l)
        | None ->
            Error
              (`Msg "log level must be debug, info, warn, error or quiet"))
  in
  let print ppf = function
    | `Quiet -> Fmt.string ppf "quiet"
    | `Level l -> Fmt.string ppf (Log.to_string l)
  in
  Arg.conv (parse, print)

let log_level_arg =
  Arg.(
    value
    & opt (some log_level_conv) None
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Structured-logger threshold: debug, info, warn (default), error \
           or quiet.  Overrides the $(b,TF_LOG) environment variable.")

(* Runs while cmdliner applies the term, i.e. before any command body. *)
let setup_logging = function
  | Some `Quiet -> Log.set_quiet ()
  | Some (`Level l) -> Log.set_level l
  | None -> ()

let setup_term = Term.(const setup_logging $ log_level_arg)

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON trace of this run to FILE (open \
           it in ui.perfetto.dev).")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write a Prometheus text exposition of the run's counters and \
           histograms to FILE.")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Export the collector to the requested files.  The trace JSON is parsed
   back as a self-check; a malformed artifact is a bug, reported as a
   degraded run. *)
let obs_export ~trace_out ~metrics_out snap =
  Option.iter
    (fun path ->
      Trace_export.to_file path snap;
      (match Json.validate (read_file path) with
      | Ok () -> ()
      | Error m ->
          Log.err "emitted trace failed JSON self-validation"
            ~fields:[ ("path", path); ("error", m) ];
          exit exit_degraded);
      Log.info "trace written"
        ~fields:
          [
            ("path", path);
            ("events", string_of_int (List.length snap.Obs.events));
          ])
    trace_out;
  Option.iter
    (fun path ->
      Prom.to_file path snap;
      Log.info "metrics written" ~fields:[ ("path", path) ])
    metrics_out

(* [with_obs ~trace_out ~metrics_out f] runs [f] with the collector on iff
   either output was requested, then exports.  Without outputs the
   collector stays off and [f] pays one branch per hook. *)
let with_obs ~trace_out ~metrics_out f =
  if trace_out = None && metrics_out = None then f ()
  else begin
    Obs.reset ();
    Obs.set_enabled true;
    (* these outputs exist for timeline inspection: record every
       occurrence, not the thinned per-(warp, site) default *)
    Obs.set_full_events true;
    let r =
      Fun.protect
        ~finally:(fun () ->
          Obs.set_enabled false;
          Obs.set_full_events false)
        f
    in
    obs_export ~trace_out ~metrics_out (Obs.snapshot ());
    r
  end

(* ------------------------------------------------------------------ *)
(* Commands                                                             *)

let list_cmd =
  let run () = E.Table1.run (E.Ctx.create ()) in
  Cmd.v (Cmd.info "list" ~doc:"Print the workload catalog (paper Table I).")
    Term.(const run $ const ())

let analyze_run () trace_out metrics_out w warp_size level threads scale
    exclude ignore_sync domains per_function per_warp timeline blocks json =
  let options =
    {
      (options ~warp_size ~ignore_sync) with
      Analyzer.record_timeline = timeline;
      domains = resolve_domains domains;
    }
  in
  let r =
    with_obs ~trace_out ~metrics_out (fun () ->
        W.analyze ~options ~level ?threads ~scale ~exclude w)
  in
  let rep = r.Analyzer.report in
  if json then print_endline (Threadfuser_report.Report_json.to_string rep)
  else begin
  Fmt.pr "workload: %s (%s, %s)@." w.W.name w.W.suite w.W.description;
  Fmt.pr "%a@." Metrics.pp_summary rep;
  Fmt.pr
    "memory:   heap %.2f txn/instr | stack %.2f | global %.2f@."
    rep.Metrics.heap_mem.Metrics.txns_per_instr
    rep.Metrics.stack_mem.Metrics.txns_per_instr
    rep.Metrics.global_mem.Metrics.txns_per_instr;
  Fmt.pr "sync:     %d acquires, %d intra-warp conflicts, %d serialized instrs@."
    rep.Metrics.lock_acquires rep.Metrics.serializations
    rep.Metrics.serialized_instrs;
  if per_function then begin
    Fmt.pr "@.per-function breakdown:@.";
    Fmt.pr "%a" Metrics.pp_functions rep
  end;
  if per_warp then begin
    Fmt.pr "@.per-warp breakdown:@.";
    Fmt.pr "%a" Metrics.pp_warps rep
  end;
  if timeline then begin
    Fmt.pr "@.divergence timeline (active lanes over issue slots):@.";
    List.iter (fun tl -> Fmt.pr "  %a@." Threadfuser.Timeline.pp tl)
      r.Analyzer.timelines
  end;
  if blocks then begin
    Fmt.pr "@.hottest divergent basic blocks:@.";
    Fmt.pr "%a" Metrics.pp_blocks rep
  end
  end

let per_warp_flag =
  Arg.(
    value & flag
    & info [ "warps" ] ~doc:"Print the per-warp efficiency breakdown.")

let timeline_flag =
  Arg.(
    value & flag
    & info [ "timeline" ]
        ~doc:"Print each warp's occupancy sparkline over its issue slots.")

let blocks_flag =
  Arg.(
    value & flag
    & info [ "blocks" ]
        ~doc:"Print the most issue-expensive divergent basic blocks.")

let json_flag =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit the full report as JSON instead of text.")

let scale =
  Arg.(
    value & opt int 1
    & info [ "scale" ] ~docv:"N" ~doc:"Synthetic input scale factor.")

let exclude =
  Arg.(
    value
    & opt (list string) []
    & info [ "exclude" ] ~docv:"FN,..."
        ~doc:
          "Exclude functions from tracing (their execution appears as            skipped instructions), like the paper's selective tracing.")

let analyze_cmd =
  let per_function =
    Arg.(
      value & flag
      & info [ "f"; "per-function" ] ~doc:"Print the per-function report.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Trace a workload's MIMD execution and report its projected SIMT \
          efficiency, memory divergence and synchronization behaviour.")
    Term.(
      const analyze_run $ setup_term $ trace_out_arg $ metrics_out_arg
      $ workload_pos $ warp_size $ opt_level $ threads
      $ scale $ exclude $ ignore_sync $ domains_arg $ per_function $ per_warp_flag $ timeline_flag $ blocks_flag $ json_flag)

let sweep_run w threads =
  Fmt.pr "warp-width sweep for %s:@." w.W.name;
  List.iter
    (fun warp_size ->
      let r =
        W.analyze ~options:{ Analyzer.default_options with warp_size } ?threads w
      in
      Fmt.pr "  warp %2d: %5.1f%%@." warp_size
        (100. *. r.Analyzer.report.Metrics.simt_efficiency))
    [ 2; 4; 8; 16; 32 ]

let sweep_cmd =
  Cmd.v
    (Cmd.info "sweep" ~doc:"SIMT efficiency across warp widths (2..32).")
    Term.(const sweep_run $ workload_pos $ threads)

let trace_run w level threads output =
  let tr = W.trace_cpu ~level ?threads w in
  Pack.to_file output tr.W.traces;
  let stats =
    Array.fold_left
      (fun acc t ->
        acc + (Threadfuser_trace.Thread_trace.stats t).Threadfuser_trace.Thread_trace.traced_instrs)
      0 tr.W.traces
  in
  Fmt.pr "wrote %s (TFPACK1): %d threads, %d traced instructions@." output
    (Array.length tr.W.traces) stats

let trace_cmd =
  let output =
    Arg.(
      value
      & opt string "trace.tfpack"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Trace file to write.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Capture a workload's per-thread dynamic traces to a file in the \
          compact columnar TFPACK1 container (delta-encoded, per-block \
          CRC-32).")
    Term.(const trace_run $ workload_pos $ opt_level $ threads $ output)

let gpu_preset_arg =
  let presets =
    [
      ("scaled", E.Fig6.gpu_config);
      ("rtx3070", Threadfuser_gpusim.Config.rtx3070);
      ("h100", Threadfuser_gpusim.Config.h100);
      ("tiny", Threadfuser_gpusim.Config.tiny);
    ]
  in
  Arg.(
    value
    & opt (enum presets) E.Fig6.gpu_config
    & info [ "gpu" ] ~docv:"PRESET"
        ~doc:"GPU configuration: scaled (default), rtx3070, h100 or tiny.")

let sim_epoch_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "epoch" ] ~docv:"CYCLES"
        ~doc:
          "Cycle-epoch barrier length for the domain-parallel simulator \
           merge.  Statistics are byte-identical at any value >= 1; only \
           the wall-clock changes.  Default 4096.")

let simulate_run () trace_out metrics_out w threads gpu_config domains epoch =
  let domains = resolve_domains domains in
  let epoch =
    match epoch with
    | Some e -> max 1 e
    | None -> Threadfuser_gpusim.Gpusim.default_epoch
  in
  let ctx = E.Ctx.create ?threads () in
  let tr = E.Ctx.traced ctx w in
  let cpu_t = E.Fig6.cpu_seconds ~domains tr in
  let stats =
    with_obs ~trace_out ~metrics_out (fun () ->
        let r =
          Threadfuser.Analyzer.analyze
            ~options:
              { Analyzer.default_options with gen_warp_trace = true; domains }
            tr.W.prog tr.W.traces
        in
        let wt = Option.get r.Analyzer.warp_trace in
        Threadfuser_gpusim.Gpusim.run ~config:gpu_config ~domains ~epoch wt)
  in
  let gpu_t = Threadfuser_gpusim.Gpusim.seconds ~config:gpu_config stats in
  Fmt.pr "workload: %s@." w.W.name;
  Fmt.pr "GPU: %a@." Threadfuser_gpusim.Gpusim.pp_stats stats;
  Fmt.pr "CPU baseline: %.3f ms | GPU projection: %.3f ms | speedup %.2fx@."
    (1000. *. cpu_t) (1000. *. gpu_t) (cpu_t /. gpu_t);
  Fmt.pr "bottleneck: %s@."
    (match Threadfuser_gpusim.Gpusim.bottleneck stats with
    | `Memory -> "memory system (coalescing / bandwidth)"
    | `Dependencies -> "instruction dependencies (ILP-bound)"
    | `Throughput -> "compute throughput (healthy occupancy)")

let simulate_cmd =
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Run the cycle-level SIMT simulator on the workload's warp traces \
          and project speedup over the multicore CPU model.")
    Term.(
      const simulate_run $ setup_term $ trace_out_arg $ metrics_out_arg
      $ workload_pos $ threads $ gpu_preset_arg $ domains_arg $ sim_epoch_arg)

(* profile: the whole pipeline under the collector, plus a human summary.
   Unlike --trace-out on other commands the collector is always on here,
   so the summary works even with no output files requested. *)
let profile_run () w warp_size level threads scale trace_out metrics_out
    domains =
  Obs.reset ();
  Obs.set_enabled true;
  Obs.set_full_events true;
  let result =
    Fun.protect
      ~finally:(fun () ->
        Obs.set_enabled false;
        Obs.set_full_events false)
      (fun () ->
        let tr =
          Obs.span "tracer"
            ~args:[ ("workload", w.W.name) ]
            (fun () -> W.trace_cpu ~level ?threads ~scale w)
        in
        Analyzer.analyze
          ~options:
            {
              Analyzer.default_options with
              warp_size;
              domains = resolve_domains domains;
            }
          tr.W.prog tr.W.traces)
  in
  let snap = Obs.snapshot () in
  obs_export ~trace_out ~metrics_out snap;
  let rep = result.Analyzer.report in
  Fmt.pr "profile: %s (warp %d, %a, %d events)@." w.W.name warp_size
    Compiler.pp_level level
    (List.length snap.Obs.events);
  Fmt.pr "@.pipeline phases:@.";
  List.iter
    (function
      | Obs.Complete { name; track; dur; _ }
        when Obs.track_id track = Obs.track_id Obs.pipeline ->
          Fmt.pr "  %-16s %9.3f ms@." name (dur /. 1000.)
      | _ -> ())
    snap.Obs.events;
  Fmt.pr "@.counters:@.";
  List.iter
    (fun c ->
      let v = Obs.Counter.value c in
      if v <> 0 then Fmt.pr "  %-32s %d@." (Obs.counter_name c) v)
    snap.Obs.counters;
  let live = List.filter (fun h -> Obs.Histogram.count h > 0) snap.Obs.histograms in
  if live <> [] then begin
    Fmt.pr "@.histograms (p50 / p95 / p99):@.";
    List.iter
      (fun h ->
        Fmt.pr "  %-32s %.1f / %.1f / %.1f  (n=%d)@." (Obs.histogram_name h)
          (Obs.Histogram.quantile h 0.5)
          (Obs.Histogram.quantile h 0.95)
          (Obs.Histogram.quantile h 0.99)
          (Obs.Histogram.count h))
      live
  end;
  Fmt.pr "@.SIMT efficiency: %.1f%%@." (100. *. rep.Metrics.simt_efficiency)

let profile_cmd =
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run the full analysis pipeline on a workload with the \
          observability collector enabled and print a phase / counter / \
          histogram summary.  $(b,--trace-out) writes a Perfetto-loadable \
          Chrome trace; $(b,--metrics-out) writes Prometheus metrics.")
    Term.(
      const profile_run $ setup_term $ workload_pos $ warp_size $ opt_level
      $ threads $ scale $ trace_out_arg $ metrics_out_arg $ domains_arg)

let correlate_cmd =
  let run () = ignore (E.Fig5.run (E.Ctx.create ())) in
  Cmd.v
    (Cmd.info "correlate"
       ~doc:
         "Reproduce the paper's correlation study (Fig. 5) across compiler \
          optimization levels.")
    Term.(const run $ const ())

let cfg_run w level threads function_name =
  let tr = W.trace_cpu ~level ?threads w in
  let dcfgs = Threadfuser_cfg.Dcfg.of_traces tr.W.prog tr.W.traces in
  let fid =
    match function_name with
    | Some name -> Threadfuser_prog.Program.find_func tr.W.prog name
    | None -> Threadfuser_prog.Program.find_func tr.W.prog w.W.cpu.W.worker
  in
  let ipdom = Threadfuser_cfg.Ipdom.compute dcfgs.(fid) in
  print_string
    (Threadfuser_cfg.Dot.to_string tr.W.prog dcfgs.(fid) (Some ipdom))

let cfg_cmd =
  let function_name =
    Arg.(
      value
      & opt (some string) None
      & info [ "f"; "function" ] ~docv:"NAME"
          ~doc:"Function to export (default: the worker).")
  in
  Cmd.v
    (Cmd.info "cfg"
       ~doc:
         "Emit a workload function's dynamic CFG (with IPDOM reconvergence           edges) as Graphviz DOT on stdout.")
    Term.(const cfg_run $ workload_pos $ opt_level $ threads $ function_name)

let tracefile_run path =
  let traces = Trace_file.load path in
  Fmt.pr "%s: %d threads@." path (Array.length traces);
  let module TT = Threadfuser_trace.Thread_trace in
  let total = ref 0 in
  Array.iter
    (fun (t : TT.t) ->
      let s = TT.stats t in
      total := !total + s.TT.traced_instrs;
      Fmt.pr
        "  tid %3d: %6d instrs, %5d blocks, %5d loads, %5d stores, %4d lock          ops, %6d skipped (io %d / spin %d)@."
        t.TT.tid s.TT.traced_instrs s.TT.blocks s.TT.loads s.TT.stores
        s.TT.lock_ops
        (s.TT.skipped_io + s.TT.skipped_spin)
        s.TT.skipped_io s.TT.skipped_spin)
    traces;
  Fmt.pr "total traced instructions: %d@." !total

let tracefile_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Trace file written by $(b,threadfuser trace).")
  in
  Cmd.v
    (Cmd.info "tracefile"
       ~doc:"Inspect a trace file (TFPACK1, or legacy TFTRACE1).")
    Term.(const tracefile_run $ path)

let disasm_run w level output =
  let prog = W.link ~alloc:w.W.alloc w.W.cpu level in
  let text =
    Threadfuser_prog.Asm_text.to_string
      (Threadfuser_prog.Asm_text.disassemble prog)
  in
  match output with
  | None -> print_string text
  | Some path ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text);
      Fmt.pr "wrote %s (%d functions, %d instructions)@." path
        (Threadfuser_prog.Program.func_count prog)
        (Threadfuser_prog.Program.total_instr_count prog)

let disasm_cmd =
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to a file instead of stdout.")
  in
  Cmd.v
    (Cmd.info "disasm"
       ~doc:
         "Disassemble a workload (with its runtime library linked in) to           .tfasm text.")
    Term.(const disasm_run $ workload_pos $ opt_level $ output)

let asm_run path =
  let surface = Threadfuser_prog.Asm_text.of_file path in
  match Threadfuser_prog.Program.assemble surface with
  | prog ->
      Fmt.pr "%s assembles cleanly: %d functions, %d basic blocks, %d               instructions@."
        path
        (Threadfuser_prog.Program.func_count prog)
        (Array.fold_left
           (fun acc f -> acc + Threadfuser_prog.Program.block_count f)
           0 prog.Threadfuser_prog.Program.funcs)
        (Threadfuser_prog.Program.total_instr_count prog)
  | exception Threadfuser_prog.Program.Assembly_error m ->
      Fmt.epr "assembly error: %s@." m;
      exit 1

let asm_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:".tfasm source file.")
  in
  Cmd.v
    (Cmd.info "asm" ~doc:"Parse and validate a .tfasm source file.")
    Term.(const asm_run $ path)

let warptrace_run w warp_size threads output =
  let options =
    { Analyzer.default_options with warp_size; gen_warp_trace = true }
  in
  let r = W.analyze ~options ?threads w in
  let wt = Option.get r.Analyzer.warp_trace in
  Threadfuser.Warp_serial.to_file output wt;
  Fmt.pr "wrote %s: %d warps, %d micro-ops@." output
    (Array.length wt.Threadfuser.Warp_trace.warps)
    (Threadfuser.Warp_trace.total_ops wt)

let warptrace_cmd =
  let output =
    Arg.(
      value
      & opt string "kernel.tfwarp"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Warp-trace file to write.")
  in
  Cmd.v
    (Cmd.info "warptrace"
       ~doc:
         "Generate the warp-level RISC trace (the simulator integration           format) and write it to a file.")
    Term.(const warptrace_run $ workload_pos $ warp_size $ threads $ output)

let replay_run path domains =
  let wt = Threadfuser.Warp_serial.of_file path in
  Fmt.pr "%s: %d warps (width %d), %d micro-ops@." path
    (Array.length wt.Threadfuser.Warp_trace.warps)
    wt.Threadfuser.Warp_trace.warp_size
    (Threadfuser.Warp_trace.total_ops wt);
  let stats =
    Threadfuser_gpusim.Gpusim.run ~config:E.Fig6.gpu_config
      ~domains:(resolve_domains domains) wt
  in
  Fmt.pr "GPU (scaled 8-SM part): %a@." Threadfuser_gpusim.Gpusim.pp_stats stats

let replay_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"Warp-trace file written by $(b,threadfuser warptrace).")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Run the cycle-level simulator on a saved warp-trace file.")
    Term.(const replay_run $ path $ domains_arg)

(* ------------------------------------------------------------------ *)
(* Robustness commands: trace validation and fault injection            *)

let pp_diag ppf d = Fmt.pf ppf "  %s" (Tf_error.to_string d)

let check_run () path workload level =
  let traces = Trace_file.load path in
  match workload with
  | None ->
      (* no program at hand: structural checks only *)
      let diags = Validate.all traces in
      List.iter (fun d -> Fmt.pr "%a@." pp_diag d) diags;
      let errors =
        List.filter (fun d -> d.Tf_error.severity = Tf_error.Error) diags
      in
      if errors <> [] then begin
        Log.err "trace validation failed"
          ~fields:
            [
              ("path", path);
              ("errors", string_of_int (List.length errors));
              ("threads", string_of_int (Array.length traces));
            ];
        exit exit_degraded
      end
      else
        Fmt.pr "%s: OK — %d threads, %d warning(s)@." path
          (Array.length traces) (List.length diags)
  | Some w ->
      (* full checked pipeline against the workload's program *)
      let prog = W.link ~alloc:w.W.alloc w.W.cpu level in
      let checked = Analyzer.analyze_checked prog traces in
      List.iter (fun d -> Fmt.pr "%a@." pp_diag d) checked.Analyzer.diagnostics;
      let rep = checked.Analyzer.result.Analyzer.report in
      Fmt.pr "%a@." Metrics.pp_summary rep;
      if Metrics.degraded rep then begin
        Log.err "analysis degraded"
          ~fields:
            [
              ("path", path);
              ( "quarantined",
                string_of_int (List.length checked.Analyzer.quarantined) );
            ];
        exit exit_degraded
      end

let check_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "Trace file written by $(b,threadfuser trace) (TFPACK1), or a \
             legacy TFTRACE1 file; the format is sniffed by magic.")
  in
  let workload =
    Arg.(
      value
      & pos 1 (some workload_arg) None
      & info [] ~docv:"WORKLOAD"
          ~doc:
            "Validate against this workload's program (range checks +             checked replay).  Omit for structural checks only.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Validate a trace file (TFPACK1, or legacy TFTRACE1): decode — \
          including magic/version and per-block CRC-32 checks for TFPACK1 \
          — run the diagnostic passes, and (given a workload) the \
          quarantining checked analysis.  Exits 2 on corrupt input, 3 on \
          validation/replay errors.")
    Term.(const check_run $ setup_term $ path $ workload $ opt_level)

(* fuzzing corrupts traces on purpose, so replay-abort warnings are the
   expected outcome, not news: default the threshold to [error] here
   (an explicit --log-level still wins) *)
let fuzz_run log_level workload runs seed0 threads level verbose =
  (match log_level with
  | None -> Log.set_level Log.Error
  | some -> setup_logging some);
  let targets =
    match workload with Some w -> [ w ] | None -> Registry.all
  in
  let any_uncaught = ref false in
  List.iter
    (fun (w : W.t) ->
      let tr = W.trace_cpu ~level ?threads w in
      let bytes = Pack.encode tr.W.traces in
      let on_outcome =
        if verbose then
          Some
            (fun ~seed o ->
              Fmt.pr "  seed %6d: %s@." seed (Fuzz.outcome_name o))
        else None
      in
      let t = Fuzz.run ~seed0 ~runs ?on_outcome ~prog:tr.W.prog ~bytes () in
      Fmt.pr "%-18s %a@." w.W.name Fuzz.pp_totals t;
      List.iter
        (fun (seed, m) ->
          Log.err "uncaught exception under fuzzing"
            ~fields:
              [ ("workload", w.W.name); ("seed", string_of_int seed); ("msg", m) ])
        t.Fuzz.uncaught;
      if t.Fuzz.uncaught <> [] then any_uncaught := true)
    targets;
  if !any_uncaught then begin
    Log.err "uncaught exceptions escaped the checked pipeline (BUG)";
    exit 4
  end

let fuzz_cmd =
  let workload =
    Arg.(
      value
      & pos 0 (some workload_arg) None
      & info [] ~docv:"WORKLOAD"
          ~doc:"Workload to fuzz (omit to sweep every registered workload).")
  in
  let runs =
    Arg.(
      value & opt int 1000
      & info [ "n"; "runs" ] ~docv:"N"
          ~doc:"Seeded corruptions to run per workload.")
  in
  let seed0 =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"First seed; run $(i,i) uses seed SEED+$(i,i).")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every outcome.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Corrupt a workload's captured trace (the TFPACK1 bytes \
          $(b,threadfuser trace) writes) N times with the seeded fault \
          injector (byte flips, truncations, dropped/duplicated events, \
          unbalanced locks and barriers) and drive each through the checked \
          analysis pipeline.  Every run must end in a clean report, a typed \
          diagnostic, or a partial report whose coverage fields account for \
          the quarantined threads; exits 4 if any exception escapes.")
    Term.(
      const fuzz_run $ log_level_arg $ workload $ runs $ seed0 $ threads
      $ opt_level $ verbose)

(* ------------------------------------------------------------------ *)
(* Blame: site-level bottleneck attribution + replay flamegraph         *)

let blame_run () trace_out metrics_out w warp_size level threads scale exclude
    ignore_sync top flame_out flame_weight json =
  let options = options ~warp_size ~ignore_sync in
  let r =
    with_obs ~trace_out ~metrics_out (fun () ->
        W.analyze ~options ~level ?threads ~scale ~exclude w)
  in
  let rep = r.Analyzer.report in
  let take n l = List.filteri (fun i _ -> i < n) l in
  let rep =
    {
      rep with
      Metrics.divergence_sites = take top rep.Metrics.divergence_sites;
      mem_sites = take top rep.Metrics.mem_sites;
    }
  in
  Option.iter
    (fun path ->
      let folded = Flamegraph.folded ~weight:flame_weight r.Analyzer.flame in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc folded);
      Log.info "flamegraph written"
        ~fields:
          [
            ("path", path);
            ("weight", Flamegraph.weight_name flame_weight);
            ("stacks", string_of_int (List.length r.Analyzer.flame));
          ])
    flame_out;
  if json then print_endline (Threadfuser_report.Report_json.to_string rep)
  else begin
    Fmt.pr "workload: %s (%s, %s)@." w.W.name w.W.suite w.W.description;
    Fmt.pr "%a@.@." Metrics.pp_summary rep;
    Fmt.pr "%a" Metrics.pp_blame rep;
    Option.iter
      (fun path ->
        Fmt.pr "@.flamegraph: wrote %s (%s-weighted folded stacks)@." path
          (Flamegraph.weight_name flame_weight))
      flame_out
  end

let blame_cmd =
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Sites to show per ranking.")
  in
  let flame_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "flamegraph" ] ~docv:"FILE"
          ~doc:
            "Write the replay flamegraph as folded stacks to FILE (feed to \
             flamegraph.pl or speedscope).")
  in
  let flame_weight =
    Arg.(
      value
      & opt
          (enum [ ("issues", Flamegraph.Issues); ("lost", Flamegraph.Lost) ])
          Flamegraph.Issues
      & info [ "flame-weight" ] ~docv:"WEIGHT"
          ~doc:
            "Flamegraph weighting: $(b,issues) (warp lock-step issues) or \
             $(b,lost) (inactive-lane issue slots).")
  in
  Cmd.v
    (Cmd.info "blame"
       ~doc:
         "Rank the branch sites that cost the most SIMT efficiency (splits \
          and downstream lost-lane issue slots) and the access sites that \
          generate the most excess memory transactions — the paper's Fig. 7 \
          diagnosis workflow, automated.  $(b,--flamegraph) additionally \
          exports the replay as folded stacks.")
    Term.(
      const blame_run $ setup_term $ trace_out_arg $ metrics_out_arg
      $ workload_pos $ warp_size $ opt_level $ threads $ scale $ exclude
      $ ignore_sync $ top $ flame_out $ flame_weight $ json_flag)

(* ------------------------------------------------------------------ *)
(* Diff: compare two JSON reports, gate on regressions                  *)

let diff_run () before_path after_path tolerance =
  let parse path =
    match Json.parse (read_file path) with
    | Ok j -> j
    | Error m ->
        Log.err "not a JSON report" ~fields:[ ("path", path); ("error", m) ];
        exit exit_corrupt
  in
  let before = parse before_path in
  let after = parse after_path in
  match Report_diff.compare_reports ~tolerance before after with
  | Error m ->
      Log.err "report shape mismatch" ~fields:[ ("error", m) ];
      exit exit_corrupt
  | Ok d ->
      Fmt.pr "%a" Report_diff.pp d;
      if Report_diff.has_regression d then exit exit_regression

let diff_cmd =
  let report_pos n name =
    Arg.(
      required
      & pos n (some file) None
      & info [] ~docv:name
          ~doc:"JSON report written by $(b,threadfuser analyze --json).")
  in
  let tolerance =
    Arg.(
      value & opt float 0.01
      & info [ "tolerance" ] ~docv:"FRAC"
          ~doc:
            "Relative slack per metric before a worsening counts as a \
             regression (0.01 = 1%).")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two analyzer JSON reports — whole-program metrics, \
          per-function efficiency, and blame sites — and exit 5 if any \
          metric regressed beyond the tolerance (2 if either file is not a \
          report).")
    Term.(
      const diff_run $ setup_term $ report_pos 0 "BASELINE"
      $ report_pos 1 "NEW" $ tolerance)

(* ------------------------------------------------------------------ *)
(* Suite: supervised batch execution with checkpoint/resume             *)

let suite_run () trace_out metrics_out workloads jobs deadline retries backoff
    dir resume warps levels threads scale seed inject_crash inject_stall stall_s
    every_attempt use_cache cache_dir domains =
  let workloads =
    match workloads with
    | [] -> List.map (fun w -> w.W.name) Registry.all
    | ws -> ws
  in
  let chaos =
    let p =
      Runner.Exec_fault.plan ~seed ~crash_pct:inject_crash
        ~stall_pct:inject_stall ~stall_s
        ~first_attempt_only:(not every_attempt) ()
    in
    if Runner.Exec_fault.active p then Some p else None
  in
  let cache =
    if use_cache || cache_dir <> None then
      Some (Cache.open_ (Option.value cache_dir ~default:".tfcache"))
    else None
  in
  let config =
    {
      Runner.parallelism = jobs;
      deadline_s = deadline;
      retries;
      backoff_s = backoff;
      seed;
      dir;
      resume;
      chaos;
      cache;
      domains = (match domains with Some d -> max 1 d | None -> 1);
    }
  in
  let batch =
    Runner.matrix ~workloads ~warp_sizes:warps ~levels ?threads ~scale ()
  in
  (* graceful shutdown: first signal drains (journal stays fsync'd and
     --resume picks up the unfinished jobs); a second one kills for real *)
  let signalled = ref false in
  let on_signal _ =
    if !signalled then exit 130;
    signalled := true;
    Runner.request_stop ()
  in
  ignore (Sys.signal Sys.sigint (Sys.Signal_handle on_signal));
  ignore (Sys.signal Sys.sigterm (Sys.Signal_handle on_signal));
  let m =
    Fun.protect
      ~finally:(fun () -> Option.iter Cache.close cache)
      (fun () ->
        with_obs ~trace_out ~metrics_out (fun () -> Runner.run ~config batch))
  in
  Fmt.pr "%a" Runner.pp_manifest m;
  if cache <> None then
    Fmt.pr "cache: %d hit(s), %d miss(es)@." m.Runner.cache_hits
      m.Runner.cache_misses;
  Fmt.pr "manifest: %s@." (Runner.manifest_path dir);
  if not (Runner.all_ok m) then exit exit_degraded

let suite_cmd =
  let workloads_pos =
    Arg.(
      value
      & pos_all workload_name_arg []
      & info [] ~docv:"WORKLOAD"
          ~doc:
            "Workloads to analyze (default: the whole registry).  Each \
             becomes one job per warp-size x opt-level combination.")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Jobs to run in parallel.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Per-attempt wall-clock budget; over it the job times out.")
  in
  let retries_arg =
    Arg.(
      value & opt int 1
      & info [ "retries" ] ~docv:"N"
          ~doc:"Extra attempts after a failed first one.")
  in
  let backoff_arg =
    Arg.(
      value & opt float 0.25
      & info [ "backoff" ] ~docv:"SECONDS"
          ~doc:
            "Base delay before the first retry; doubles per attempt with \
             seeded jitter, capped at 30 s.")
  in
  let dir_arg =
    Arg.(
      value
      & opt string ".tfsuite"
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Suite directory: checkpoint journal, report artifacts and \
             manifest.json.")
  in
  let resume_flag =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Replay the checkpoint journal in $(b,--dir) and re-run only \
             jobs without a valid completed record.")
  in
  let warps_arg =
    Arg.(
      value
      & opt (list warp_size_conv) [ 32 ]
      & info [ "w"; "warp-size" ] ~docv:"N,..."
          ~doc:
            (Printf.sprintf "Warp widths (each 1..%d) to cross into the job \
                             matrix."
               Threadfuser.Mask.max_lanes))
  in
  let levels_arg =
    Arg.(
      value
      & opt (list level_arg) [ Compiler.O1 ]
      & info [ "O"; "opt-level" ] ~docv:"LEVEL,..."
          ~doc:"Optimization levels to cross into the job matrix.")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:"Root seed for backoff jitter and fault injection.")
  in
  let inject_crash_arg =
    Arg.(
      value & opt int 0
      & info [ "inject-crash" ] ~docv:"PCT"
          ~doc:
            "Chaos: crash each eligible attempt with this probability \
             (deterministic per seed/job/attempt).")
  in
  let inject_stall_arg =
    Arg.(
      value & opt int 0
      & info [ "inject-stall" ] ~docv:"PCT"
          ~doc:"Chaos: stall eligible attempts with this probability.")
  in
  let stall_s_arg =
    Arg.(
      value & opt float 30.
      & info [ "stall-s" ] ~docv:"SECONDS"
          ~doc:"How long an injected stall sleeps.")
  in
  let every_attempt_flag =
    Arg.(
      value & flag
      & info [ "inject-every-attempt" ]
          ~doc:
            "Make retries as fault-prone as first attempts (default: \
             faults fire on attempt 1 only, so retries recover).")
  in
  let cache_flag =
    Arg.(
      value & flag
      & info [ "cache" ]
          ~doc:
            "Serve jobs from the content-addressed artifact cache when the \
             key (workload, opt level, warp size, analyzer version) hits; \
             write clean fresh results through.  Composes with \
             $(b,--resume).  Default root $(b,.tfcache); override with \
             $(b,--cache-dir).")
  in
  let cache_dir_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Artifact-cache root (implies $(b,--cache)).")
  in
  (* suite already uses -j for job-level parallelism, so the replay-domain
     knob is long-form only here *)
  let suite_domains_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Replay worker domains inside each job's analysis (the \
             analyzer's $(b,-j)); byte-identical reports at any value.  \
             Orthogonal to $(b,--jobs).")
  in
  Cmd.v
    (Cmd.info "suite"
       ~doc:
         "Analyze a batch of workloads under a supervisor: parallel \
          crash-isolated jobs, per-job deadlines, seeded retry/backoff, \
          and an fsync'd checkpoint journal so $(b,--resume) skips \
          completed work.  Always writes a manifest accounting for every \
          job; exits 3 unless every job completed clean.")
    Term.(
      const suite_run $ setup_term $ trace_out_arg $ metrics_out_arg
      $ workloads_pos $ jobs_arg $ deadline_arg $ retries_arg
      $ backoff_arg $ dir_arg $ resume_flag $ warps_arg $ levels_arg $ threads
      $ scale $ seed_arg $ inject_crash_arg $ inject_stall_arg $ stall_s_arg
      $ every_attempt_flag $ cache_flag $ cache_dir_opt $ suite_domains_arg)

(* ------------------------------------------------------------------ *)
(* Cache: artifact-store maintenance                                    *)

let cache_root_arg =
  Arg.(
    value
    & opt string ".tfcache"
    & info [ "dir" ] ~docv:"DIR" ~doc:"Artifact-cache root directory.")

let with_cache dir f =
  let c = Cache.open_ dir in
  Fun.protect ~finally:(fun () -> Cache.close c) (fun () -> f c)

let pp_cache_check dir what (r : Cache.check) =
  Fmt.pr
    "cache %s %s: %d checked — %d ok, %d corrupt, %d missing, %d orphaned@."
    dir what r.Cache.checked r.Cache.ok r.Cache.corrupt r.Cache.missing
    r.Cache.orphaned

let cache_stat_run () trace_out metrics_out dir =
  with_obs ~trace_out ~metrics_out (fun () ->
      with_cache dir (fun c ->
          let s = Cache.stat c in
          Fmt.pr
            "cache %s: %d live entrie(s), %d byte(s), %d quarantined, %d tmp \
             file(s)@."
            dir s.Cache.entries_live s.Cache.bytes_live s.Cache.quarantined
            s.Cache.tmp_files))

let cache_verify_run () trace_out metrics_out dir =
  let r =
    with_obs ~trace_out ~metrics_out (fun () -> with_cache dir Cache.verify)
  in
  pp_cache_check dir "verify" r;
  if r.Cache.corrupt > 0 || r.Cache.missing > 0 then exit exit_degraded

let cache_scrub_run () trace_out metrics_out dir =
  (* scrub repairs: quarantining damage is its job, so it exits 0 unless
     the store itself is unusable *)
  let r =
    with_obs ~trace_out ~metrics_out (fun () -> with_cache dir Cache.scrub)
  in
  pp_cache_check dir "scrub" r

let cache_gc_run () trace_out metrics_out dir budget =
  let evicted =
    with_obs ~trace_out ~metrics_out (fun () ->
        with_cache dir (fun c -> Cache.gc c ~budget_bytes:budget))
  in
  Fmt.pr "cache %s gc: %d entrie(s) evicted to fit %d byte(s)@." dir evicted
    budget

let cache_cmd =
  let budget_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "budget" ] ~docv:"BYTES"
          ~doc:"Live-set size budget; least-recently-used entries beyond \
                it are evicted.")
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:
         "Maintain the content-addressed artifact cache used by \
          $(b,threadfuser suite --cache): inspect it, re-verify every \
          entry, repair it after a crash, and enforce a size budget.")
    [
      Cmd.v
        (Cmd.info "stat"
           ~doc:"Print live entry count, byte total, quarantine and tmp \
                 counts.")
        Term.(
          const cache_stat_run $ setup_term $ trace_out_arg $ metrics_out_arg
          $ cache_root_arg);
      Cmd.v
        (Cmd.info "verify"
           ~doc:
             "Re-verify every blob (magic, CRC-32, structure, report \
              validator) and cross-check the index, read-only.  Exits 3 if \
              anything is corrupt or missing.")
        Term.(
          const cache_verify_run $ setup_term $ trace_out_arg
          $ metrics_out_arg $ cache_root_arg);
      Cmd.v
        (Cmd.info "scrub"
           ~doc:
             "Repair the store: quarantine damaged blobs, adopt valid \
              orphans, sweep commit leftovers, and atomically rebuild the \
              index from the survivors.  Exits 0 — quarantining damage is \
              the repair, not a failure.")
        Term.(
          const cache_scrub_run $ setup_term $ trace_out_arg $ metrics_out_arg
          $ cache_root_arg);
      Cmd.v
        (Cmd.info "gc"
           ~doc:
             "Evict least-recently-used entries until the live set fits \
              $(b,--budget) bytes (recency = journal order, \
              deterministic).")
        Term.(
          const cache_gc_run $ setup_term $ trace_out_arg $ metrics_out_arg
          $ cache_root_arg $ budget_arg);
    ]

(* ------------------------------------------------------------------ *)
(* Serve: the streaming analysis daemon and its client                  *)

let socket_arg =
  Arg.(
    value
    & opt string "threadfuser.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket the daemon listens on.")

let serve_run () trace_out metrics_out w level warp_size ignore_sync domains
    max_sessions quota deadline workers seed backoff inject_disc inject_stall
    inject_oversize stall_s disc_after socket admin_socket flight_dir cache_dir
    =
  let prog = W.link ~alloc:w.W.alloc w.W.cpu level in
  let options =
    {
      (options ~warp_size ~ignore_sync) with
      Analyzer.domains = resolve_domains domains;
    }
  in
  let fault =
    let p =
      Runner.Exec_fault.session_plan ~seed ~disconnect_pct:inject_disc
        ~stall_writer_pct:inject_stall ~oversize_pct:inject_oversize
        ~writer_stall_s:stall_s ~disconnect_after:disc_after ()
    in
    if Runner.Exec_fault.session_plan_active p then Some p else None
  in
  let cache = Option.map Cache.open_ cache_dir in
  let cfg =
    {
      (Serve.default_config ~prog ~socket_path:socket) with
      Serve.options;
      max_sessions;
      session_quota = quota;
      deadline_s = deadline;
      workers = max 1 workers;
      seed;
      backoff_base_s = backoff;
      fault;
      admin_path =
        (match admin_socket with
        | Some p -> Some p
        | None -> Some (Serve.admin_path_of socket));
      flight_dir;
      cache;
    }
  in
  let stop = Atomic.make false in
  let request_stop _ = Atomic.set stop true in
  ignore (Sys.signal Sys.sigterm (Sys.Signal_handle request_stop));
  ignore (Sys.signal Sys.sigint (Sys.Signal_handle request_stop));
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let stats =
    Fun.protect
      ~finally:(fun () -> Option.iter Cache.close cache)
      (fun () -> with_obs ~trace_out ~metrics_out (fun () -> Serve.run ~stop cfg))
  in
  Fmt.pr "served %d session(s), %d failed, %d shed, %d byte(s) ingested@."
    stats.Serve.served stats.Serve.failed stats.Serve.shed
    stats.Serve.bytes_ingested

let serve_cmd =
  let max_sessions_arg =
    Arg.(
      value & opt int 8
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:
            "Concurrent sessions before new connections are shed with a \
             typed $(b,busy) reply.")
  in
  let quota_arg =
    Arg.(
      value
      & opt int Threadfuser.Analyzer.Session.default_budget
      & info [ "session-quota" ] ~docv:"BYTES"
          ~doc:
            "Per-session memory budget; ingested frames beyond it spool to \
             disk, and a frame bigger than the whole budget is rejected as \
             corrupt.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Per-session wall-clock budget; over it the session gets a \
             typed $(b,timeout) reply covering the prefix it sent.")
  in
  let workers_arg =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"N"
          ~doc:"Analysis worker domains servicing the session pool.")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:"Root seed for backoff jitter and fault injection.")
  in
  let backoff_arg =
    Arg.(
      value & opt float 0.05
      & info [ "backoff" ] ~docv:"SECONDS"
          ~doc:
            "Base listener back-off after a transient accept failure; \
             doubles per attempt with seeded jitter.")
  in
  let inject_disconnect_arg =
    Arg.(
      value & opt int 0
      & info [ "inject-disconnect" ] ~docv:"PCT"
          ~doc:
            "Chaos: cut this percentage of sessions mid-stream \
             (deterministic per seed and accept ordinal).")
  in
  let inject_stall_writer_arg =
    Arg.(
      value & opt int 0
      & info [ "inject-stall-writer" ] ~docv:"PCT"
          ~doc:"Chaos: stop reading this percentage of sessions' sockets.")
  in
  let inject_oversize_arg =
    Arg.(
      value & opt int 0
      & info [ "inject-oversize" ] ~docv:"PCT"
          ~doc:
            "Chaos: prepend an oversized frame header to this percentage \
             of sessions.")
  in
  let stall_s_arg =
    Arg.(
      value & opt float 30.
      & info [ "stall-s" ] ~docv:"SECONDS"
          ~doc:"How long an injected writer stall lasts.")
  in
  let disconnect_after_arg =
    Arg.(
      value & opt int 4096
      & info [ "disconnect-after" ] ~docv:"BYTES"
          ~doc:"Upper bound on bytes read before an injected disconnect.")
  in
  let admin_socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "admin-socket" ] ~docv:"PATH"
          ~doc:
            "Where the STATS admin socket listens (default: \
             $(b,<socket>.stats)).  $(b,threadfuser stat) and $(b,top) \
             scrape it.")
  in
  let flight_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-dir" ] ~docv:"DIR"
          ~doc:
            "Enable the per-session flight recorder and dump \
             $(b,session-<id>.trace.json) (Perfetto-loadable) plus a \
             metrics snapshot there whenever a session ends in an error \
             or timeout reply.")
  in
  let serve_cache_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Serve clean report frames from (and write them through to) \
             the artifact cache at $(docv), keyed by the stream's content \
             digest.  Cache failures degrade to uncached replies.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the streaming analysis daemon on a Unix-domain socket.  \
          Each connection streams one trace (any chunking) and gets back \
          a typed status plus a report byte-identical to batch \
          $(b,threadfuser analyze --json).  Sessions are supervised: \
          bounded memory per session, backpressure on slow consumers, \
          $(b,busy) shedding at capacity, per-session deadlines, and \
          crash isolation.  SIGTERM/SIGINT drain live sessions and exit \
          cleanly.")
    Term.(
      const serve_run $ setup_term $ trace_out_arg $ metrics_out_arg
      $ workload_pos $ opt_level $ warp_size $ ignore_sync $ domains_arg
      $ max_sessions_arg $ quota_arg $ deadline_arg
      $ workers_arg $ seed_arg $ backoff_arg $ inject_disconnect_arg
      $ inject_stall_writer_arg $ inject_oversize_arg $ stall_s_arg
      $ disconnect_after_arg $ socket_arg $ admin_socket_arg $ flight_dir_arg
      $ serve_cache_dir_arg)

let client_run () path socket chunk_bytes =
  let stream = Stream.encode (Trace_file.load path) in
  let outcome = Sclient.session ~chunk_bytes ~socket_path:socket stream in
  let r = outcome.Sclient.reply in
  Log.info "serve reply"
    ~fields:
      ([
         ("status", Sprotocol.status_name r.Sprotocol.status);
         ("streamed_bytes", string_of_int (String.length stream));
         ("threads", string_of_int r.Sprotocol.threads);
         ("quarantined", string_of_int r.Sprotocol.quarantined);
       ]
      @ (match r.Sprotocol.kind with Some k -> [ ("kind", k) ] | None -> [])
      @
      match r.Sprotocol.message with
      | Some m -> [ ("message", m) ]
      | None -> []);
  List.iter (fun d -> Fmt.epr "  %s@." d) r.Sprotocol.diagnostics;
  (* frame bytes verbatim + the same trailing newline [analyze --json]
     emits, so the outputs compare byte-for-byte *)
  Option.iter print_endline outcome.Sclient.report;
  match r.Sprotocol.status with
  | Sprotocol.Ok_report -> ()
  | Sprotocol.Degraded -> exit exit_degraded
  | Sprotocol.Busy -> exit exit_busy
  | Sprotocol.Error_reply | Sprotocol.Timeout -> exit exit_corrupt
  | Sprotocol.Ready ->
      Log.err "daemon never answered the stream";
      exit exit_corrupt

let client_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Trace file written by $(b,threadfuser trace).")
  in
  let chunk_arg =
    Arg.(
      value & opt int 65536
      & info [ "chunk-bytes" ] ~docv:"BYTES"
          ~doc:
            "Stream the trace in slices of this size (1 exercises \
             byte-at-a-time ingestion).")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Stream a trace file to a running $(b,threadfuser serve) daemon \
          and print the returned report JSON on stdout.  Exit 0 on a \
          clean report, 3 degraded, 6 busy, 2 on error or timeout.")
    Term.(const client_run $ setup_term $ path $ socket_arg $ chunk_arg)

(* ------------------------------------------------------------------ *)
(* Stat / top: scrape a running daemon's admin socket                   *)

let scrape ~format socket =
  let admin = Serve.admin_path_of socket in
  try Ok (Sclient.stats ~format ~socket_path:socket ())
  with
  | Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" admin (Unix.error_message e))
  | End_of_file -> Error (Printf.sprintf "%s: daemon closed mid-reply" admin)

let jint k j =
  Option.value ~default:0 (Option.bind (Json.member k j) Json.to_int_opt)

let jfloat k j =
  Option.value ~default:0.0 (Option.bind (Json.member k j) Json.to_float_opt)

let jstr k j =
  Option.value ~default:"" (Option.bind (Json.member k j) Json.to_string_opt)

let jbool k j =
  match Json.member k j with Some (Json.Bool b) -> b | _ -> false

let parse_stats body =
  match Json.parse body with
  | Ok j -> j
  | Error m ->
      Log.err "unparseable stats document: %s" m;
      exit exit_corrupt

let stat_print_human j =
  let d = Option.value ~default:(Json.Obj []) (Json.member "daemon" j) in
  let l = Option.value ~default:(Json.Obj []) (Json.member "latency_us" j) in
  Fmt.pr
    "daemon: up %.1fs — %d/%d session(s) active, %d worker(s), queue %d@."
    (jfloat "uptime_s" j) (jint "active" d) (jint "max_sessions" d)
    (jint "workers" d) (jint "worker_queue_depth" d);
  Fmt.pr
    "totals: %d served, %d failed, %d shed, %d byte(s) ingested; flight \
     recorder %s@."
    (jint "served" d) (jint "failed" d) (jint "shed" d)
    (jint "bytes_ingested" d)
    (if jbool "flight_recorder" d then "on" else "off");
  Fmt.pr "latency: %d session(s) — p50 %.0fus  p95 %.0fus  p99 %.0fus@."
    (jint "count" l) (jfloat "p50" l) (jfloat "p95" l) (jfloat "p99" l);
  match Json.member "sessions" j with
  | Some (Json.List (_ :: _ as sessions)) ->
      Fmt.pr "@.  %-5s %-8s %-9s %8s %10s %10s  %s@." "id" "kind" "state"
        "age_s" "bytes" "queue" "flags";
      List.iter
        (fun s ->
          let flags =
            List.filter_map
              (fun (k, label) -> if jbool k s then Some label else None)
              [
                ("backpressure", "backpressure");
                ("stalled", "stalled");
                ("eof", "eof");
                ("timed_out", "timed-out");
                ("worker_owned", "in-worker");
              ]
          in
          Fmt.pr "  %-5d %-8s %-9s %8.1f %10d %10d  %s@." (jint "id" s)
            (jstr "kind" s) (jstr "state" s) (jfloat "age_s" s)
            (jint "bytes_ingested" s) (jint "queue_bytes" s)
            (String.concat "," flags))
        sessions
  | _ -> ()

let stat_run () socket prom json =
  let format =
    if prom then Sprotocol.Stats_prom else Sprotocol.Stats_json
  in
  match scrape ~format socket with
  | Error m ->
      Log.err "cannot scrape daemon: %s" m;
      exit exit_corrupt
  | Ok body ->
      if prom || json then print_string body
      else stat_print_human (parse_stats body)

let prom_flag =
  Arg.(
    value & flag
    & info [ "prom" ]
        ~doc:"Print the raw Prometheus text exposition instead of a summary.")

let json_flag =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Print the raw JSON status document ($(b,tfserve-stats/1)) \
           instead of a summary.")

let stat_cmd =
  Cmd.v
    (Cmd.info "stat"
       ~doc:
         "One-shot scrape of a running $(b,threadfuser serve) daemon's \
          admin socket ($(b,<socket>.stats)): live per-session state, \
          totals and latency quantiles.  $(b,--prom) and $(b,--json) emit \
          the raw exposition for scripts and scrapers.  Exit 2 when no \
          daemon answers.")
    Term.(const stat_run $ setup_term $ socket_arg $ prom_flag $ json_flag)

(* Poll loop over the JSON document: rates are deltas between consecutive
   scrapes, so a dashboardless terminal still sees ingest B/s and session
   throughput move. *)
let top_run () socket interval count =
  if interval <= 0.0 then begin
    Log.err "--interval must be positive";
    exit exit_usage
  end;
  let stop = ref false in
  let handle _ = stop := true in
  ignore (Sys.signal Sys.sigint (Sys.Signal_handle handle));
  ignore (Sys.signal Sys.sigterm (Sys.Signal_handle handle));
  let prev = ref None in
  let iter = ref 0 in
  while (not !stop) && (count = 0 || !iter < count) do
    (match scrape ~format:Sprotocol.Stats_json socket with
    | Error m ->
        Log.err "cannot scrape daemon: %s" m;
        exit exit_corrupt
    | Ok body ->
        let j = parse_stats body in
        let d = Option.value ~default:(Json.Obj []) (Json.member "daemon" j) in
        let l =
          Option.value ~default:(Json.Obj []) (Json.member "latency_us" j)
        in
        let done_n = jint "served" d + jint "failed" d in
        let bytes = jint "bytes_ingested" d in
        let shed = jint "shed" d in
        (match !prev with
        | None ->
            Fmt.pr "%-8s %8s %9s %12s %9s %9s %9s %9s@." "time" "active"
              "sess/s" "ingest-B/s" "shed/s" "p50-us" "p95-us" "p99-us"
        | Some (t0, done0, bytes0, shed0) ->
            let dt = Unix.gettimeofday () -. t0 in
            let dt = if dt <= 0.0 then interval else dt in
            Fmt.pr "%-8.1f %8d %9.2f %12.0f %9.2f %9.0f %9.0f %9.0f@."
              (jfloat "uptime_s" j) (jint "active" d)
              (float_of_int (done_n - done0) /. dt)
              (float_of_int (bytes - bytes0) /. dt)
              (float_of_int (shed - shed0) /. dt)
              (jfloat "p50" l) (jfloat "p95" l) (jfloat "p99" l));
        prev := Some (Unix.gettimeofday (), done_n, bytes, shed));
    incr iter;
    if (not !stop) && (count = 0 || !iter < count) then Unix.sleepf interval
  done

let top_cmd =
  let interval_arg =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Seconds between scrapes.")
  in
  let count_arg =
    Arg.(
      value & opt int 0
      & info [ "count" ] ~docv:"N"
          ~doc:"Stop after this many scrapes (0 = until interrupted).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Poll a running $(b,threadfuser serve) daemon's admin socket and \
          print a rolling rate line per scrape: active sessions, \
          sessions/s, ingest bytes/s, shed rate and session latency \
          quantiles.  The first scrape prints the header; rates are \
          deltas between consecutive scrapes.")
    Term.(const top_run $ setup_term $ socket_arg $ interval_arg $ count_arg)

let main =
  Cmd.group
    (Cmd.info "threadfuser" ~version:"1.0.0"
       ~doc:
         "A SIMT analysis framework for MIMD programs (reproduction of the \
          MICRO 2024 paper).")
    [
      list_cmd; analyze_cmd; sweep_cmd; trace_cmd; tracefile_cmd; cfg_cmd;
      disasm_cmd; asm_cmd; warptrace_cmd; replay_cmd; simulate_cmd;
      profile_cmd; correlate_cmd; check_cmd; fuzz_cmd; blame_cmd; diff_cmd;
      suite_cmd; cache_cmd; serve_cmd; client_cmd; stat_cmd; top_cmd;
    ]

(* Top-level error handler: uncaught-exception backtraces never reach the
   user; every failure mode maps to a structured log record and a distinct
   exit code (1 usage, 2 corrupt input, 3 analysis degraded).  These log at
   [Error], above every threshold except quiet. *)
let () =
  Log.init_from_env ();
  let code =
    try Cmd.eval ~catch:false main with
    | Serial.Corrupt m ->
        Log.err "corrupt trace input: %s" m;
        exit_corrupt
    | Threadfuser.Warp_serial.Corrupt m ->
        Log.err "corrupt warp-trace input: %s" m;
        exit_corrupt
    | Tf_error.Error d ->
        Log.err "%s" (Tf_error.to_string d);
        exit_degraded
    | Threadfuser.Emulator.Emulation_error m ->
        Log.err "trace/program mismatch: %s" m;
        exit_degraded
    | Invalid_argument m | Failure m ->
        Log.err "%s" m;
        exit_usage
    | Sys_error m ->
        Log.err "%s" m;
        exit_usage
  in
  exit (if code = Cmd.Exit.cli_error then exit_usage else code)
