(* tfbench: the end-to-end benchmark.  Four fixed-input workloads, each
   run in its own child process, each item's output checked against a
   committed MD5 (bench/e2e/expected.digests; exit 5 on a mismatch).

     dune exec bench/e2e/tfbench.exe                       -- all four
     dune exec bench/e2e/tfbench.exe -- --workload serve --seconds 10
     dune exec bench/e2e/tfbench.exe -- --trace 1          -- per-layer run
     dune exec bench/e2e/tfbench.exe -- --record-digests   -- rewrite oracle

   The last line of stdout is one JSON object: correct / attempted /
   failed / metrics (end-to-end metrics, or with --trace 1 the per-layer
   metrics every workload has).  bench/e2e/README.md explains each
   workload and metric. *)

module W = Threadfuser_workloads.Workload
module Registry = Threadfuser_workloads.Registry
module Compiler = Threadfuser_compiler.Compiler
module Analyzer = Threadfuser.Analyzer
module Batching = Threadfuser.Batching
module Metrics = Threadfuser.Metrics
module Warp_trace = Threadfuser.Warp_trace
module Thread_trace = Threadfuser_trace.Thread_trace
module Pack = Threadfuser_trace.Pack
module Stream = Threadfuser_trace.Stream
module Validate = Threadfuser_trace.Validate
module Dcfg = Threadfuser_cfg.Dcfg
module Ipdom = Threadfuser_cfg.Ipdom
module Program = Threadfuser_prog.Program
module Report_json = Threadfuser_report.Report_json
module Json = Threadfuser_report.Json
module Gpusim = Threadfuser_gpusim.Gpusim
module Cpusim = Threadfuser_cpusim.Cpusim
module Fig6 = Threadfuser_experiments.Fig6
module Serve = Threadfuser_serve.Serve
module Client = Threadfuser_serve.Client
module Protocol = Threadfuser_serve.Protocol
module Lcg = Threadfuser_util.Lcg
module Stats = Threadfuser_stats.Stats

let now = Unix.gettimeofday
let median l = Stats.percentile ~q:0.5 (Array.of_list l)

(* ------------------------------------------------------------------ *)
(* Items                                                                *)

type outcome = {
  ok : bool;
  output : string;  (** the bytes the item's digest covers *)
  counts : (string * int) list;  (** model counts, additive over items *)
}

type item = {
  key : string;  (** digest key: workload / input *)
  events : int;  (** trace events the item processes *)
  checked : bool;  (** its analyzer call validates (as the probe does) *)
  run : unit -> unit -> outcome;
      (** the timed call; returns the untimed check of its output *)
  probe : unit -> unit;  (** traced runs: stage probes on the item's input *)
  reference : (unit -> string) option;
      (** output the digest is recorded from, when not the item's own *)
}

(* One set-up of a workload: its items, the set-up cost of each layer,
   and the teardown, which returns per-layer metrics found there. *)
type instance = {
  items : item array;
  setup_layers : (string * float) list;  (** ms *)
  work_pid : string option;
      (** the process doing the work, when not this one *)
  teardown : unit -> (string * float * string) list;
}

let no_teardown () = []

let events_of traces =
  Array.fold_left
    (fun acc (t : Thread_trace.t) -> acc + Array.length t.Thread_trace.events)
    0 traces

let bounds prog =
  {
    Validate.func_count = Program.func_count prog;
    block_count = (fun f -> Program.block_count (Program.func prog f));
    block_instrs =
      Some
        (fun f b ->
          Array.length (Program.func prog f).Program.blocks.(b).Program.instrs);
  }

let report_counts ~warp_size ~warps ~issues ~thread_instrs =
  [
    ("replay.warps", warps);
    ("replay.issues", issues);
    ("replay.thread_instrs", thread_instrs);
    ("replay.slots", issues * warp_size);
  ]

let counts_of_report (r : Metrics.report) =
  report_counts ~warp_size:r.Metrics.warp_size ~warps:r.Metrics.n_warps
    ~issues:r.Metrics.issues ~thread_instrs:r.Metrics.thread_instrs

(* Time [f] into [acc] (seconds), and as a span when tracing. *)
let timed acc name f =
  let t0 = now () in
  let r = Span.record name f in
  acc := !acc +. (now () -. t0);
  r

let options ?(gen_warp_trace = false) ?(warp_size = 32)
    ?(batching = Batching.Sequential) () =
  {
    Analyzer.default_options with
    Analyzer.warp_size;
    batching;
    gen_warp_trace;
    domains = 1;
  }

(* The stages an analyzer call runs inside, called on their own in a
   sibling span just before the item, so the item span keeps exactly
   the calls an untraced run makes.  [batch] adds the analyzer call
   itself, for serve, whose analysis runs in the daemon. *)
let probe ?(batch = false) ~(options : Analyzer.options) prog traces () =
  Span.record "probe" (fun () ->
      ignore
        (Span.record "validate" (fun () ->
             Validate.quarantine ~bounds:(bounds prog) traces));
      let dcfgs = Span.record "dcfg" (fun () -> Dcfg.of_traces prog traces) in
      ignore (Span.record "ipdom" (fun () -> Ipdom.of_dcfgs dcfgs));
      ignore
        (Span.record "warp_formation" (fun () ->
             Batching.form options.Analyzer.batching
               ~warp_size:options.Analyzer.warp_size traces));
      if batch then
        ignore
          (Span.record "analyze" (fun () ->
               Analyzer.analyze_checked ~options prog traces)))

(* ------------------------------------------------------------------ *)
(* replay-sweep: the paper's design-space exploration.  Traced once,
   replayed at every warp size x batching policy; nothing is decoded. *)

let sweep_sets =
  [
    "hdsearch-mid"; "pigz"; "particlefilter"; "b+tree"; "x264";
    "textsearch-mid"; "fluidanimate"; "mcrouter-memcached";
  ]

let replay_sweep ~dir:_ () =
  let tracer = ref 0. in
  let sets =
    List.map
      (fun name ->
        (name, timed tracer "tracer" (fun () -> W.trace_cpu (Registry.find name))))
      sweep_sets
  in
  let item name (tr : W.traced) warp_size batching =
    let options = options ~warp_size ~batching () in
    {
      key =
        Printf.sprintf "replay-sweep/%s/w%d/%s" name warp_size
          (Batching.to_string batching);
      events = events_of tr.W.traces;
      checked = false;
      run =
        (fun () ->
          let r =
            Span.record "analyze" (fun () ->
                Analyzer.analyze ~options tr.W.prog tr.W.traces)
          in
          fun () ->
            {
              ok = true;
              output = Report_json.to_string r.Analyzer.report;
              counts = counts_of_report r.Analyzer.report;
            });
      probe = probe ~options tr.W.prog tr.W.traces;
      reference = None;
    }
  in
  let items =
    List.concat_map
      (fun (name, tr) ->
        List.concat_map
          (fun warp_size ->
            List.map (item name tr warp_size)
              [ Batching.Sequential; Batching.Signature_greedy ])
          [ 8; 16; 32 ])
      sets
  in
  {
    items = Array.of_list items;
    setup_layers = [ ("tracer.ms", !tracer *. 1e3) ];
    work_pid = None;
    teardown = no_teardown;
  }

(* ------------------------------------------------------------------ *)
(* trace-ingest: `threadfuser check FILE WORKLOAD` over a TFPACK1 file
   of every registry workload; each trace is decoded and replayed once. *)

let trace_ingest ~dir () =
  let tracer = ref 0. and encode = ref 0. in
  let item (w : W.t) =
    let tr = timed tracer "tracer" (fun () -> W.trace_cpu w) in
    let path = Filename.concat dir (w.W.name ^ ".tfpack") in
    timed encode "encode" (fun () -> Pack.to_file path tr.W.traces);
    let pack_bytes = (Unix.stat path).Unix.st_size in
    let prog = tr.W.prog and events = events_of tr.W.traces in
    (* only the file outlives set-up: the probe decodes its own copy *)
    {
      key = "trace-ingest/" ^ w.W.name;
      events;
      checked = true;
      run =
        (fun () ->
          let traces = Span.record "decode" (fun () -> Pack.of_file path) in
          let c =
            Span.record "analyze" (fun () ->
                Analyzer.analyze_checked prog traces)
          in
          let report = c.Analyzer.result.Analyzer.report in
          let json = Span.record "report" (fun () -> Report_json.to_string report) in
          fun () ->
            {
              ok = not (Metrics.degraded report);
              output = json;
              counts =
                counts_of_report report
                @ [ ("pack.bytes", pack_bytes); ("report.bytes", String.length json) ];
            });
      probe =
        (fun () ->
          probe ~options:Analyzer.default_options prog (Pack.of_file path) ());
      reference = None;
    }
  in
  let items = List.map item Registry.all in
  {
    items = Array.of_list items;
    setup_layers = [ ("tracer.ms", !tracer *. 1e3); ("pack.encode_ms", !encode *. 1e3) ];
    work_pid = None;
    teardown = no_teardown;
  }

(* ------------------------------------------------------------------ *)
(* simulate: the Fig. 6 flow, cpusim -> analyzer warp trace -> gpusim.
   512 threads make 16 warps, enough to give all 8 SMs work. *)

let sim_output (cpu : Cpusim.stats) (r : Analyzer.result) (gpu : Gpusim.stats)
    wt =
  Printf.sprintf
    "cpusim cycles=%d instructions=%d l1_hit_rate=%h cores=%s\n\
     gpusim cycles=%d instructions=%d thread_instructions=%d l1=%d/%d \
     l2=%d/%d dram=%d idle=%d stalls=%d/%d/%d\n\
     warp_trace ops=%d\n\
     %s"
    cpu.Cpusim.cycles cpu.Cpusim.instructions cpu.Cpusim.l1_hit_rate
    (String.concat "," (Array.to_list (Array.map string_of_int cpu.Cpusim.core_cycles)))
    gpu.Gpusim.cycles gpu.Gpusim.instructions gpu.Gpusim.thread_instructions
    gpu.Gpusim.l1_hits gpu.Gpusim.l1_misses gpu.Gpusim.l2_hits
    gpu.Gpusim.l2_misses gpu.Gpusim.dram_transactions gpu.Gpusim.idle_cycles
    gpu.Gpusim.stall_dependency gpu.Gpusim.stall_memory gpu.Gpusim.stall_empty
    (Warp_trace.total_ops wt)
    (Report_json.to_string r.Analyzer.report)

let simulate ~dir:_ () =
  let tracer = ref 0. in
  let options = options ~gen_warp_trace:true () in
  let item (w : W.t) =
    let tr = timed tracer "tracer" (fun () -> W.trace_cpu ~threads:512 w) in
    {
      key = "simulate/" ^ w.W.name;
      events = events_of tr.W.traces;
      checked = false;
      run =
        (fun () ->
          let cpu =
            Span.record "cpusim" (fun () ->
                Cpusim.run ~config:Fig6.cpu_config ~domains:1 tr.W.traces)
          in
          let r =
            Span.record "analyze" (fun () ->
                Analyzer.analyze ~options tr.W.prog tr.W.traces)
          in
          let wt = Option.get r.Analyzer.warp_trace in
          let gpu =
            Span.record "gpusim" (fun () ->
                Gpusim.run ~config:Fig6.gpu_config ~domains:1 wt)
          in
          fun () ->
            {
              ok = true;
              output = sim_output cpu r gpu wt;
              counts =
                counts_of_report r.Analyzer.report
                @ [
                    ("cpusim.cycles", cpu.Cpusim.cycles);
                    ("gpusim.cycles", gpu.Gpusim.cycles);
                    ("gpusim.warp_instrs", gpu.Gpusim.instructions);
                    ("gpusim.l1_hits", gpu.Gpusim.l1_hits);
                    ("gpusim.l1_misses", gpu.Gpusim.l1_misses);
                    ("gpusim.l2_hits", gpu.Gpusim.l2_hits);
                    ("gpusim.l2_misses", gpu.Gpusim.l2_misses);
                    ("gpusim.dram_txns", gpu.Gpusim.dram_transactions);
                    ("gpusim.idle_cycles", gpu.Gpusim.idle_cycles);
                    ("warp_trace.ops", Warp_trace.total_ops wt);
                  ];
            });
      probe = probe ~options tr.W.prog tr.W.traces;
      reference = None;
    }
  in
  let items = List.map item Registry.correlation in
  {
    items = Array.of_list items;
    setup_layers = [ ("tracer.ms", !tracer *. 1e3) ];
    work_pid = None;
    teardown = no_teardown;
  }

(* ------------------------------------------------------------------ *)
(* serve: a closed loop of one client connection against a daemon
   (1 worker, no cache, no flight recorder) in its own process,
   streaming TFSTREAM1 traces of hdsearch-mid at five thread counts. *)

(* Start this executable again with [args]: a fresh process, so its
   peak RSS covers only its own work, not pages a fork would inherit. *)
let spawn_self args ~stdin ~stdout =
  Unix.create_process Sys.executable_name
    (Array.of_list (Sys.executable_name :: args))
    stdin stdout Unix.stderr

(* The value of [field] in a /proc/<pid>/status file. *)
let status_field ?(pid = "self") field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | Some line when String.starts_with ~prefix:(field ^ ":") line ->
            let i = String.length field + 1 in
            String.trim (String.sub line i (String.length line - i))
        | Some _ -> go ()
        | None -> failwith (Printf.sprintf "no %s in %s" field path)
      in
      go ())

let vm_hwm_kb ?pid () = Scanf.sscanf (status_field ?pid "VmHWM") "%d kB" Fun.id

type daemon = {
  pid : int;
  ready : Unix.file_descr;
  lifeline : Unix.file_descr;  (** the daemon drains when this closes *)
  socket_path : string;
}

let serve_workload = "hdsearch-mid"
let link (w : W.t) = W.link ~alloc:w.W.alloc w.W.cpu Compiler.O1

(* The daemon process (`--serve-daemon SOCKET`).  It writes one byte to
   stdout when ready, and drains on EOF of stdin, however the bench side
   ends, crash included. *)
let serve_daemon socket_path =
  let stop = Atomic.make false in
  ignore
    (Thread.create
       (fun () ->
         (try ignore (Unix.read Unix.stdin (Bytes.create 1) 0 1)
          with Unix.Unix_error _ -> ());
         Atomic.set stop true;
         (* wakes the select loop, which sleeps up to 1 s between checks
            of [stop] *)
         let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
         (try Unix.connect fd (Unix.ADDR_UNIX (Serve.admin_path_of socket_path))
          with Unix.Unix_error _ -> ());
         Unix.close fd)
       ());
  let cfg =
    {
      (Serve.default_config ~prog:(link (Registry.find serve_workload)) ~socket_path) with
      Serve.workers = 1;
      tmp_dir = Some (Filename.dirname socket_path);
    }
  in
  let on_ready () =
    print_char 'r';
    flush stdout
  in
  ignore (Serve.run ~stop ~on_ready cfg)

let spawn_daemon ~socket_path =
  let ready_r, ready_w = Unix.pipe ~cloexec:true () in
  let life_r, life_w = Unix.pipe ~cloexec:true () in
  let pid = spawn_self [ "--serve-daemon"; socket_path ] ~stdin:life_r ~stdout:ready_w in
  Unix.close ready_w;
  Unix.close life_r;
  { pid; ready = ready_r; lifeline = life_w; socket_path }

let wait_ready d =
  let n = Unix.read d.ready (Bytes.create 1) 0 1 in
  Unix.close d.ready;
  if n <> 1 then failwith "serve daemon exited before it was ready"

(* Scrape the daemon's STATS, then let it drain. *)
let stop_daemon d =
  let stats =
    match Json.parse (Client.stats ~socket_path:d.socket_path ()) with
    | Ok j -> j
    | Error m -> failwith ("unparseable STATS reply: " ^ m)
  in
  Unix.close d.lifeline;
  ignore (Unix.waitpid [] d.pid);
  let field path =
    List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some stats) path
    |> Fun.flip Option.bind Json.to_float_opt
    |> Option.value ~default:nan
  in
  let count name = ("serve." ^ name, field [ "daemon"; name ], "count") in
  [
    ("serve.daemon_p50_us", field [ "latency_us"; "p50" ], "us");
    ("serve.daemon_p95_us", field [ "latency_us"; "p95" ], "us");
    count "served";
    count "failed";
    count "shed";
    count "bytes_ingested";
  ]

let counts_of_report_json s =
  match Json.parse s with
  | Error _ -> []
  | Ok j ->
      let int k = Option.value ~default:0 (Option.bind (Json.member k j) Json.to_int_opt) in
      report_counts ~warp_size:(int "warp_size") ~warps:(int "warps")
        ~issues:(int "issues") ~thread_instrs:(int "thread_instructions")

let serve_threads = [ 16; 32; 64; 96; 128 ]

let serve ~dir () =
  let tracer = ref 0. in
  let d = spawn_daemon ~socket_path:(Filename.concat dir "serve.sock") in
  let w = Registry.find serve_workload in
  let prog = timed tracer "tracer" (fun () -> link w) in
  let options = options () in
  let item threads =
    let tr = timed tracer "tracer" (fun () -> W.trace_cpu ~threads w) in
    let stream = Span.record "stream_encode" (fun () -> Stream.encode tr.W.traces) in
    {
      key = Printf.sprintf "serve/%s/t%d" serve_workload threads;
      events = events_of tr.W.traces;
      checked = true;
      run =
        (fun () ->
          let o =
            Span.record "session" (fun () ->
                Client.session ~socket_path:d.socket_path stream)
          in
          fun () ->
            let report = Option.value ~default:"" o.Client.report in
            {
              ok = o.Client.reply.Protocol.status = Protocol.Ok_report && report <> "";
              output = report;
              counts =
                counts_of_report_json report
                @ [ ("stream.bytes", String.length stream) ];
            });
      probe = probe ~batch:true ~options prog tr.W.traces;
      reference =
        Some
          (fun () ->
            Report_json.to_string
              (Analyzer.analyze_checked ~options prog tr.W.traces)
                .Analyzer.result.Analyzer.report);
    }
  in
  let items = List.map item serve_threads in
  Span.record "daemon_ready" (fun () -> wait_ready d);
  {
    items = Array.of_list items;
    setup_layers = [ ("tracer.ms", !tracer *. 1e3) ];
    work_pid = Some (string_of_int d.pid);
    teardown = (fun () -> stop_daemon d);
  }

(* ------------------------------------------------------------------ *)
(* Workload table                                                       *)

type workload = {
  name : string;
  passes : int;  (** default pass count, about 25 s of items *)
  setup : dir:string -> unit -> instance;
}

let workloads =
  [
    { name = "replay-sweep"; passes = 16; setup = replay_sweep };
    { name = "trace-ingest"; passes = 28; setup = trace_ingest };
    { name = "simulate"; passes = 50; setup = simulate };
    { name = "serve"; passes = 60; setup = serve };
  ]

(* The end-to-end metrics a --trace 0 run prints as its result line,
   the ones BENCHMARK.json gates on.  The rest are printed and in
   --json: failed_ratio is 0 on a healthy run, and the two latency
   percentiles spread more than any bound allows across runs on the
   reference host (README.md, "Noise"). *)
let gated = [ "ns_per_event"; "setup_s"; "rss_peak_mb" ]

(* Per-layer metrics every workload reports: the set a --trace 1 run
   prints as its result line. *)
let common_layers =
  [
    "tracer.ms"; "validate.ns_per_event"; "dcfg.ns_per_event";
    "ipdom.us_per_item"; "warp_formation.us_per_item"; "replay.ns_per_event";
    "replay.words_per_event"; "replay.issues"; "replay.simt_efficiency";
    "trace.overhead_ratio"; "trace.unaccounted_ratio";
  ]

(* Passes a --seconds run makes at least, so each item's cost is a
   decile of 10 or more times. *)
let min_passes = 10

(* An item's cost, which ns_per_event sums: the lower decile of its
   times over a run's passes.  Host interference only ever adds time,
   and on the reference host it comes in stretches of several seconds
   that a median over a run does not outvote (README.md, "Noise"). *)
let cost_quantile = 0.1

(* Set-ups per run; setup_s is their median.  A run with a forced pass
   count (--passes, --record-digests) sets up once. *)
let setups = 5

(* ------------------------------------------------------------------ *)
(* Measurement                                                          *)

type config = {
  seed : int;
  seconds : float option;
  pass_limit : int option;
  trace : bool;
  record : bool;
  expected : (string, string) Hashtbl.t;
}

exception Mismatch of string

type phase = {
  ph_passes : int;
  ph_times : float list array;  (** seconds, per item of the instance *)
  ph_attempted : int;
  ph_failed : int;
  ph_occs : (int * item * (string * int) list) list;
      (** traced item occurrences: id, item, its counts *)
  ph_recorded : (string * string) list;  (** key, digest (record mode) *)
  ph_rss_kb : int;  (** VmHWM of the working process after [min_passes] passes *)
}

let occ_counter = ref 0
let digest s = Digest.to_hex (Digest.string s)

let check_digest cfg ~wname (it : item) output =
  let got = digest output in
  match Hashtbl.find_opt cfg.expected it.key with
  | Some want when want = got -> ()
  | want ->
      raise
        (Mismatch
           (Printf.sprintf "workload %s, item %s: digest %s, expected %s" wname
              it.key got
              (Option.value ~default:"none recorded" want)))

(* In record mode, the digest of the item's reference output, which
   serve's output must also match byte for byte. *)
let record_digest (it : item) output =
  match it.reference with
  | None -> digest output
  | Some f ->
      let r = f () in
      if r <> output then raise (Mismatch (it.key ^ ": output differs from batch"));
      digest r

(* Run whole passes over [inst]'s items, each pass in a seeded order,
   until [max_passes], or until [budget_s] has passed and at least
   [min_passes] passes have run.  Peak RSS is read after [min_passes]
   passes (or at the end of a shorter phase), a fixed amount of work:
   the daemon's grows with the sessions it serves, and a faster program
   runs more of them in [budget_s]. *)
let run_phase cfg ~wname ~traced ~max_passes ~budget_s ~min_passes inst =
  Span.recording := traced;
  let items = inst.items in
  let times = Array.make (Array.length items) [] in
  let attempted = ref 0 and failed = ref 0 in
  let occs = ref [] and recorded = ref [] in
  let t_start = now () in
  let passes = ref 0 and rss_kb = ref None in
  let more () =
    !passes = 0
    || !passes < max_passes
       && (now () -. t_start < budget_s || !passes < min_passes)
  in
  while more () do
    let order = Array.init (Array.length items) Fun.id in
    Lcg.shuffle (Lcg.create (Lcg.derive ~seed:cfg.seed ~index:!passes)) order;
    Array.iter
      (fun i ->
        let it = items.(i) in
        let occ = !occ_counter in
        incr occ_counter;
        Span.current_item := occ;
        if traced then it.probe ();
        let t0 = now () in
        let check = try Ok (Span.record "item" it.run) with e -> Error e in
        let dt = now () -. t0 in
        Span.current_item := -1;
        incr attempted;
        times.(i) <- dt :: times.(i);
        match Result.bind check (fun c -> try Ok (c ()) with e -> Error e) with
        | Ok o when o.ok ->
            if cfg.record then recorded := (it.key, record_digest it o.output) :: !recorded
            else check_digest cfg ~wname it o.output;
            if traced then occs := (occ, it, o.counts) :: !occs
        | Ok _ -> incr failed
        | Error e ->
            if !failed = 0 then
              Printf.eprintf "tfbench: %s failed: %s\n%!" it.key
                (Printexc.to_string e);
            incr failed)
      order;
    incr passes;
    if !passes = min_passes then rss_kb := Some (vm_hwm_kb ?pid:inst.work_pid ())
  done;
  Span.recording := false;
  {
    ph_passes = !passes;
    ph_times = times;
    ph_attempted = !attempted;
    ph_failed = !failed;
    ph_occs = List.rev !occs;
    ph_recorded = List.rev !recorded;
    ph_rss_kb =
      (match !rss_kb with Some kb -> kb | None -> vm_hwm_kb ?pid:inst.work_pid ());
  }

let costs ph =
  Array.map (fun l -> Stats.percentile ~q:cost_quantile (Array.of_list l)) ph.ph_times

let ns_per_event (items : item array) ph =
  let events = Array.fold_left (fun acc it -> acc + it.events) 0 items in
  Array.fold_left ( +. ) 0. (costs ph) /. float_of_int events *. 1e9

(* The replay layer's self time in one item occurrence, derived: the
   analyzer call minus the stages the probe ran on the same input. *)
let replay_self find (occ, (it : item), _) get =
  match find occ "analyze" with
  | None -> None
  | Some a ->
      Some
        (List.fold_left
           (fun acc st ->
             match find occ st with Some s -> acc -. get s | None -> acc)
           (get a)
           ((if it.checked then [ "validate" ] else [])
           @ [ "dcfg"; "ipdom"; "warp_formation" ]))

let span_finder spans =
  let by_occ = Hashtbl.create 1024 in
  List.iter
    (fun (s : Span.t) ->
      if s.Span.item >= 0 then Hashtbl.replace by_occ (s.Span.item, s.Span.name) s)
    spans;
  fun occ name -> Hashtbl.find_opt by_occ (occ, name)

(* Per-layer metrics of a traced phase, from its spans and counts.
   Counts are per pass: every pass runs every item once. *)
let layer_metrics (ph : phase) spans =
  let find = span_finder spans in
  let sum f = List.fold_left (fun acc o -> acc +. f o) 0. ph.ph_occs in
  let total name get =
    sum (fun (occ, _, _) -> match find occ name with Some s -> get s | None -> 0.)
  in
  let has name = List.exists (fun (occ, _, _) -> find occ name <> None) ph.ph_occs in
  let n = float_of_int (List.length ph.ph_occs) in
  let passes = float_of_int ph.ph_passes in
  let events = sum (fun (_, it, _) -> float_of_int it.events) in
  let events_per_pass = events /. passes and items_per_pass = n /. passes in
  let count name =
    sum (fun (_, _, c) ->
        float_of_int (Option.value ~default:0 (List.assoc_opt name c)))
    /. passes
  in
  let ns_per_event name = total name Span.dur /. events *. 1e9 in
  let us_per_item name = total name Span.dur /. n *. 1e6 in
  let replay get =
    sum (fun o -> Option.value ~default:0. (replay_self find o get))
  in
  let self = Span.self_times spans in
  let item_spans =
    List.filter (fun (s : Span.t) -> s.Span.name = "item" && s.Span.item >= 0) spans
  in
  let unaccounted =
    List.fold_left (fun acc s -> acc +. self s) 0. item_spans
    /. List.fold_left (fun acc s -> acc +. Span.dur s) 0. item_spans
  in
  let hit_ratio cache =
    let hits = count (cache ^ "_hits") in
    hits /. (hits +. count (cache ^ "_misses"))
  in
  let if_has name l = if has name then l () else [] in
  [
    ("validate.ns_per_event", ns_per_event "validate", "ns");
    ("dcfg.ns_per_event", ns_per_event "dcfg", "ns");
    ("ipdom.us_per_item", us_per_item "ipdom", "us");
    ("warp_formation.us_per_item", us_per_item "warp_formation", "us");
    ("replay.ns_per_event", replay Span.dur /. events *. 1e9, "ns");
    ("replay.words_per_event", replay (fun s -> s.Span.words) /. events, "words");
    ("replay.warps", count "replay.warps", "count");
    ("replay.issues", count "replay.issues", "count");
    ("replay.thread_instrs", count "replay.thread_instrs", "count");
    ( "replay.simt_efficiency",
      count "replay.thread_instrs" /. count "replay.slots",
      "ratio" );
    ("trace.unaccounted_ratio", unaccounted, "ratio");
  ]
  @ if_has "decode" (fun () ->
      [
        ("pack.decode_ns_per_event", ns_per_event "decode", "ns");
        ( "pack.decode_words_per_event",
          total "decode" (fun s -> s.Span.words) /. events,
          "words" );
        ("pack.bytes_per_event", count "pack.bytes" /. events_per_pass, "bytes");
      ])
  @ if_has "report" (fun () ->
      [
        ("report.us_per_item", us_per_item "report", "us");
        ("report.bytes", count "report.bytes" /. items_per_pass, "bytes");
      ])
  @ if_has "cpusim" (fun () ->
      [
        ("cpusim.ns_per_event", ns_per_event "cpusim", "ns");
        ("cpusim.cycles", count "cpusim.cycles", "count");
      ])
  @ if_has "gpusim" (fun () ->
      [
        ( "gpusim.ns_per_warp_instr",
          total "gpusim" Span.dur /. passes /. count "gpusim.warp_instrs" *. 1e9,
          "ns" );
        ("gpusim.cycles", count "gpusim.cycles", "count");
        ("gpusim.warp_instrs", count "gpusim.warp_instrs", "count");
        ("gpusim.l1_hit_ratio", hit_ratio "gpusim.l1", "ratio");
        ("gpusim.l2_hit_ratio", hit_ratio "gpusim.l2", "ratio");
        ("gpusim.dram_txns", count "gpusim.dram_txns", "count");
        ("gpusim.idle_cycles", count "gpusim.idle_cycles", "count");
        ("warp_trace.ops", count "warp_trace.ops", "count");
      ])
  @ if_has "session" (fun () ->
      [
        ( "client.session_ms",
          median
            (List.filter_map
               (fun (occ, _, _) ->
                 Option.map (fun s -> Span.dur s *. 1e3) (find occ "session"))
               ph.ph_occs),
          "ms" );
        ("stream.bytes_per_event", count "stream.bytes" /. events_per_pass, "bytes");
      ])

(* ------------------------------------------------------------------ *)
(* One workload, in a child process                                    *)

type result = {
  wname : string;
  setups : int;
  passes : int;
  items_per_pass : int;
  attempted : int;
  failed : int;
  wall_s : float;  (** the worker process's wall time, set-up included *)
  metrics : (string * float * string) list;  (** end to end *)
  layers : (string * float * string) list;  (** traced runs *)
  item_ms : (string * float) list;  (** each item's cost *)
  spans : Span.t list;
  derived : (int * float) list;  (** analyze span id -> replay self (us) *)
  recorded : (string * string) list;
}

let work_root = ".tfbench"

let mkdir_p d = try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let remove_dir d =
  Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
  Unix.rmdir d

let measure cfg (wl : workload) =
  mkdir_p work_root;
  let dir = Filename.concat work_root (string_of_int (Unix.getpid ())) in
  mkdir_p dir;
  let live = ref None in
  let teardown () =
    let i = Option.get !live in
    live := None;
    i.teardown ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try if !live <> None then ignore (teardown ()) with _ -> ());
      remove_dir dir)
  @@ fun () ->
  Span.recording := cfg.trace;
  let setup_s = ref [] and setup_layers = ref [] in
  let setups = if cfg.pass_limit = None then setups else 1 in
  for _ = 1 to setups do
    if !live <> None then ignore (teardown ());
    (* each set-up pays for its own garbage, not the last one's *)
    Gc.full_major ();
    let t0 = now () in
    let inst = Span.record "setup" (wl.setup ~dir) in
    setup_s := (now () -. t0) :: !setup_s;
    setup_layers := inst.setup_layers :: !setup_layers;
    live := Some inst
  done;
  let inst = Option.get !live in
  let max_passes =
    match (cfg.pass_limit, cfg.seconds) with
    | Some p, _ -> p
    | None, Some _ -> max_int
    | None, None -> wl.passes
  in
  let budget = Option.value cfg.seconds ~default:infinity in
  let phase ~traced ~budget_s ~min_passes =
    run_phase cfg ~wname:wl.name ~traced ~max_passes ~budget_s ~min_passes inst
  in
  (* a traced run splits its time: untraced first, for the overhead ratio *)
  let base =
    if cfg.trace then phase ~traced:false ~budget_s:(budget /. 2.) ~min_passes:0
    else phase ~traced:false ~budget_s:budget ~min_passes
  in
  let traced =
    if cfg.trace then Some (phase ~traced:true ~budget_s:(budget /. 2.) ~min_passes:0)
    else None
  in
  let down_layers = teardown () in
  let all_times = Array.of_list (List.concat (Array.to_list base.ph_times)) in
  let pct q = Stats.percentile ~q all_times *. 1e3 in
  let metrics =
    [
      ("ns_per_event", ns_per_event inst.items base, "ns");
      ("item_p50_ms", pct 0.5, "ms");
      ("item_p95_ms", pct 0.95, "ms");
      ("setup_s", median !setup_s, "s");
      ("rss_peak_mb", float_of_int base.ph_rss_kb /. 1024., "MiB");
      ( "failed_ratio",
        float_of_int base.ph_failed /. float_of_int base.ph_attempted,
        "ratio" );
    ]
  in
  let spans = List.rev !Span.log in
  let layers, derived =
    match traced with
    | None -> ([], [])
    | Some ph ->
        let setup_layer (name, _) =
          (name, median (List.map (List.assoc name) !setup_layers), "ms")
        in
        let layers =
          List.map setup_layer (List.hd !setup_layers)
          @ layer_metrics ph spans @ down_layers
        in
        (* the daemon's latency histogram covers every session of both
           phases, so the client side does too *)
        let transport =
          List.find_map
            (fun (n, d, _) ->
              if n <> "serve.daemon_p50_us" then None
              else
                let client =
                  Stats.percentile ~q:0.5
                    (Array.append all_times
                       (Array.of_list (List.concat (Array.to_list ph.ph_times))))
                  *. 1e3
                in
                Some ("serve.transport_ms", client -. (d /. 1e3), "ms"))
            layers
          |> Option.to_list
        in
        let overhead = ns_per_event inst.items ph /. ns_per_event inst.items base in
        let find = span_finder spans in
        ( layers @ transport @ [ ("trace.overhead_ratio", overhead, "ratio") ],
          List.filter_map
            (fun ((occ, _, _) as o) ->
              match (find occ "analyze", replay_self find o Span.dur) with
              | Some a, Some d -> Some (a.Span.id, d *. 1e6)
              | _ -> None)
            ph.ph_occs )
  in
  {
    wname = wl.name;
    setups;
    passes = base.ph_passes;
    items_per_pass = Array.length inst.items;
    attempted = base.ph_attempted;
    failed = base.ph_failed;
    wall_s = nan;
    metrics;
    layers;
    item_ms =
      Array.to_list (Array.map2 (fun it c -> (it.key, c *. 1e3)) inst.items (costs base));
    spans;
    derived;
    recorded = base.ph_recorded;
  }

(* The worker process (`--worker NAME`): measure one workload and
   marshal the result to stdout.  Exit code 5 on a digest mismatch. *)
let worker cfg wl =
  match measure cfg wl with
  | res ->
      set_binary_mode_out stdout true;
      Marshal.to_channel stdout (res : result) [];
      flush stdout
  | exception Mismatch m ->
      prerr_endline ("tfbench: digest mismatch: " ^ m);
      exit 5
  | exception e ->
      prerr_endline ("tfbench: " ^ wl.name ^ ": " ^ Printexc.to_string e);
      exit 1

(* Run [wl] in a worker process given this process's own arguments. *)
let in_child args wl =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid = spawn_self (args @ [ "--worker"; wl.name ]) ~stdin:Unix.stdin ~stdout:w in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let res = try Some (Marshal.from_channel ic : result) with End_of_file | Failure _ -> None in
  close_in ic;
  match (snd (Unix.waitpid [] pid), res) with
  | Unix.WEXITED 0, Some res -> Ok { res with wall_s = now () -. t0 }
  | Unix.WEXITED c, _ when c <> 0 -> Error c
  | _ -> Error 1

(* ------------------------------------------------------------------ *)
(* Output                                                               *)

(* Compact JSON with floats at full precision, and null for the
   non-finite ones.  Json.to_compact_string keeps 6 significant digits:
   too few for the result line, whose values carry all their digits,
   and for trace timestamps, microseconds into a run of 10^7 or more. *)
let rec json_string (v : Json.t) =
  match v with
  | Json.Float f -> if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
  | Json.List l -> "[" ^ String.concat "," (List.map json_string l) ^ "]"
  | Json.Obj kvs ->
      let field (k, x) = Json.to_compact_string (Json.String k) ^ ":" ^ json_string x in
      "{" ^ String.concat "," (List.map field kvs) ^ "}"
  | v -> Json.to_compact_string v

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let metric_json ms =
  Json.Obj
    (List.map
       (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
       ms)

(* CPUs this process may run on, as `nproc` counts them. *)
let nproc () =
  List.fold_left
    (fun acc range ->
      match String.split_on_char '-' range with
      | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
      | _ -> acc + 1)
    0
    (String.split_on_char ',' (status_field "Cpus_allowed_list"))

let host_json () =
  Json.Obj
    [
      ("nproc", Json.Int (nproc ()));
      ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
    ]

(* [run] is how the runs were made; compare.py compares only documents
   whose [run] is equal. *)
let result_json cfg results =
  Json.Obj
    [
      ("schema", Json.String "tfbench/1");
      ("host", host_json ());
      ("seed", Json.Int cfg.seed);
      ( "run",
        Json.Obj
          [
            ("workloads", Json.List (List.map (fun r -> Json.String r.wname) results));
            ("trace", Json.Bool cfg.trace);
            ("seconds", match cfg.seconds with Some s -> Json.Float s | None -> Json.Null);
            ("passes", match cfg.pass_limit with Some p -> Json.Int p | None -> Json.Null);
          ] );
      ( "workloads",
        Json.Obj
          (List.map
             (fun r ->
               ( r.wname,
                 Json.Obj
                   [
                     ("setups", Json.Int r.setups);
                     ("passes", Json.Int r.passes);
                     ("items", Json.Int r.attempted);
                     ("items_per_pass", Json.Int r.items_per_pass);
                     ("failed", Json.Int r.failed);
                     ("wall_s", Json.Float r.wall_s);
                     ("metrics", metric_json r.metrics);
                     ("layers", metric_json r.layers);
                     ( "item_ms",
                       Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.item_ms) );
                   ] ))
             results) );
    ]

let trace_json results =
  let base =
    List.fold_left
      (fun acc r -> List.fold_left (fun acc (s : Span.t) -> min acc s.Span.t0) acc r.spans)
      infinity results
  in
  let events =
    List.concat
      (List.mapi
         (fun i r ->
           let derived = Hashtbl.of_seq (List.to_seq r.derived) in
           let extra (s : Span.t) =
             match Hashtbl.find_opt derived s.Span.id with
             | Some us -> [ ("replay_self_us_derived", Json.Float us) ]
             | None -> []
           in
           Span.chrome_events ~pid:(i + 1) ~label:("tfbench " ^ r.wname) ~base
             ~extra r.spans)
         results)
  in
  Json.Obj [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.String "ms") ]

let print_result r =
  Printf.printf "== %s: %d passes, %d items (%d per pass), %d set-ups, %.1f s wall ==\n"
    r.wname r.passes r.attempted r.items_per_pass r.setups r.wall_s;
  List.iter
    (fun (n, v, u) -> Printf.printf "%s %s %.10g %s\n" r.wname n v u)
    (r.metrics @ r.layers)

(* The result line: one workload's metrics by name, or, for several,
   under "<workload>/<metric>". *)
let result_line cfg ~correct results =
  let pick r =
    if cfg.trace then List.filter (fun (n, _, _) -> List.mem n common_layers) r.layers
    else List.filter (fun (n, _, _) -> List.mem n gated) r.metrics
  in
  let metrics =
    match results with
    | [ r ] -> pick r
    | _ ->
        List.concat_map
          (fun r -> List.map (fun (n, v, u) -> (r.wname ^ "/" ^ n, v, u)) (pick r))
          results
  in
  json_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int (List.fold_left (fun a r -> a + r.attempted) 0 results));
         ("failed", Json.Int (List.fold_left (fun a r -> a + r.failed) 0 results));
         ("metrics", metric_json metrics);
       ])

let read_digests path =
  let tbl = Hashtbl.create 128 in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          match String.split_on_char ' ' (input_line ic) with
          | [ hex; ""; key ] -> Hashtbl.replace tbl key hex
          | _ -> ()
        done
      with End_of_file -> ());
  tbl

let usage =
  "tfbench [--workload NAME]... [--seed N] [--seconds S | --passes N] [--trace \
   0|1] [--trace-out FILE] [--json FILE] [--digests FILE] [--record-digests]"

let () =
  let names = ref [] and seed = ref 1 and seconds = ref None and passes = ref None in
  let trace = ref 0 and trace_out = ref (Filename.concat work_root "trace.json") in
  let json_out = ref None and digests = ref "bench/e2e/expected.digests" and record = ref false in
  let worker_of = ref None and daemon_socket = ref None in
  let specs =
    Arg.align
      [
        ("--workload", Arg.String (fun s -> names := s :: !names),
         "NAME workload to run (repeatable; default: all four)");
        ("--seed", Arg.Set_int seed, "N seed of the item order in each pass (default 1)");
        ("--seconds", Arg.Float (fun s -> seconds := Some s),
         "S run passes for S seconds, and at least 10 passes");
        ("--passes", Arg.Int (fun p -> passes := Some p), "N run exactly N passes, after one set-up");
        ("--trace", Arg.Set_int trace, "0|1 1: also run traced, report per-layer metrics");
        ("--trace-out", Arg.Set_string trace_out,
         "FILE Chrome trace of the traced run (default .tfbench/trace.json)");
        ("--json", Arg.String (fun f -> json_out := Some f), "FILE write the full result document");
        ("--digests", Arg.Set_string digests,
         "FILE expected output digests (default bench/e2e/expected.digests)");
        ("--record-digests", Arg.Set record, " rewrite --digests from one pass instead of checking");
        ("--worker", Arg.String (fun s -> worker_of := Some s),
         "NAME (internal) measure one workload, marshal the result to stdout");
        ("--serve-daemon", Arg.String (fun s -> daemon_socket := Some s),
         "SOCKET (internal) the serve workload's daemon");
      ]
  in
  let fail msg =
    prerr_endline ("tfbench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv specs (fun a -> fail ("unexpected argument " ^ a)) usage
   with Arg.Bad m | Arg.Help m -> prerr_string m; exit 2);
  Option.iter
    (fun socket ->
      serve_daemon socket;
      exit 0)
    !daemon_socket;
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  let find n =
    match List.find_opt (fun w -> w.name = n) workloads with
    | Some w -> w
    | None -> fail ("unknown workload " ^ n)
  in
  let selected = match List.rev !names with [] -> workloads | l -> List.map find l in
  let record = !record in
  let cfg =
    {
      seed = !seed;
      seconds = !seconds;
      pass_limit = (if record then Some 1 else !passes);
      trace = !trace = 1 && not record;
      record;
      expected = (if record then Hashtbl.create 1 else read_digests !digests);
    }
  in
  Option.iter
    (fun n ->
      worker cfg (find n);
      exit 0)
    !worker_of;
  at_exit (fun () -> try Unix.rmdir work_root with Unix.Unix_error _ -> ());
  Printf.printf "tfbench: %s seed %d\n" (json_string (host_json ())) cfg.seed;
  let args = List.tl (Array.to_list Sys.argv) in
  let rec go acc = function
    | [] -> List.rev acc
    | wl :: rest -> (
        match in_child args wl with
        | Ok r ->
            print_result r;
            go (r :: acc) rest
        | Error 5 ->
            print_endline (result_line cfg ~correct:false (List.rev acc));
            exit 5
        | Error c -> exit c)
  in
  let results = go [] selected in
  Option.iter (fun f -> write_file f (json_string (result_json cfg results) ^ "\n")) !json_out;
  if cfg.trace then begin
    if !trace_out = Filename.concat work_root "trace.json" then mkdir_p work_root;
    write_file !trace_out (json_string (trace_json results) ^ "\n")
  end;
  if record then begin
    let lines =
      List.concat_map (fun r -> r.recorded) results
      |> List.sort compare
      |> List.map (fun (key, hex) -> hex ^ "  " ^ key ^ "\n")
    in
    write_file !digests (String.concat "" lines);
    Printf.printf "wrote %d digests to %s\n" (List.length lines) !digests
  end;
  print_endline (result_line cfg ~correct:true results)
