(** The ThreadFuser analyzer: the public entry point tying the pipeline
    together (paper Fig. 3b).

    {[ traces --> DCFG --> IPDOM --> warp formation --> SIMT-stack
       emulation --> efficiency / divergence report (+ warp traces) ]}

    Typical use:

    {[
      let machine = Machine.create prog in
      setup (Machine.memory machine);
      let run = Machine.run_workers machine ~worker ~args in
      let result = Analyzer.analyze prog run.traces in
      Fmt.pr "%a@." Metrics.pp_summary result.report
    ]} *)

module Program = Threadfuser_prog.Program
module Thread_trace = Threadfuser_trace.Thread_trace
module Validate = Threadfuser_trace.Validate
module Serial = Threadfuser_trace.Serial
module Stream = Threadfuser_trace.Stream
module Pack = Threadfuser_trace.Pack
module Tf_error = Threadfuser_util.Tf_error
module Dcfg = Threadfuser_cfg.Dcfg
module Ipdom = Threadfuser_cfg.Ipdom
module Obs = Threadfuser_obs.Obs
module Log = Threadfuser_obs.Log

(* Observability instruments (docs/observability.md); all no-ops until the
   collector is enabled. *)

(* Replay totals.  The emulator and the coalescer keep exact totals of
   their own, so these are not fed per event: {!publish_totals} adds the
   merged replay state's totals once per analysis. *)
let c_mem_instrs =
  Obs.Counter.make "tf_mem_instrs_total"
    ~help:"warp-level memory instructions coalesced"
let c_mem_txns =
  Obs.Counter.make "tf_mem_transactions_total"
    ~help:"32B memory transactions after coalescing"
let c_div_splits =
  Obs.Counter.make "tf_divergence_splits_total"
    ~help:"branch divergences that split a warp"
let c_lock_serializations =
  Obs.Counter.make "tf_lock_serializations_total"
    ~help:"same-lock contention episodes serialized within a warp"
let c_serialized_instrs =
  Obs.Counter.make "tf_serialized_instrs_total"
    ~help:"thread instructions replayed one-lane-at-a-time under a lock"
let c_barrier_syncs =
  Obs.Counter.make "tf_barrier_syncs_total"
    ~help:"warp-level team-barrier crossings"

let c_warps = Obs.Counter.make "tf_warps_replayed_total" ~help:"warps replayed"
let c_warp_failures =
  Obs.Counter.make "tf_warp_failures_total"
    ~help:"warps whose checked replay aborted"
let h_warp_replay =
  Obs.Histogram.make "tf_warp_replay_us"
    ~help:"per-warp SIMT-stack replay latency (us)"
let c_par_merge_ns =
  Obs.Counter.make "tf_par_merge_ns"
    ~help:"cumulative wall time spent merging replay shards (ns)"

type options = {
  warp_size : int;
  batching : Batching.t;
  sync : Emulator.sync_mode; (* serialize same-lock lanes or ignore locks *)
  reconv : Emulator.reconv_mode; (* IPDOM or function-exit-only (ablation) *)
  gen_warp_trace : bool; (* also produce the simulator trace *)
  record_timeline : bool; (* record per-warp occupancy timelines *)
  domains : int;
      (* replay domains, capped by trace volume ([Par_replay.auto_domains]);
         1 = sequential (docs/performance.md) *)
}

let default_options =
  {
    warp_size = 32;
    batching = Batching.Sequential;
    sync = Emulator.Serialize;
    reconv = Emulator.Ipdom_reconv;
    gen_warp_trace = false;
    record_timeline = false;
    domains = 1;
  }

(* One folded call stack of the replay flamegraph: frames root-first,
   weighted by lock-step issues and by lost-lane issue slots. *)
type flame_stack = {
  frames : string list; (* function names, root first *)
  fl_issues : int;
  fl_lost : int;
}

type result = {
  report : Metrics.report;
  warp_trace : Warp_trace.t option;
  timelines : Timeline.t list; (* in warp order; empty unless recorded *)
  flame : flame_stack list; (* folded replay stacks, by descending issues *)
  dcfgs : Dcfg.t array;
  ipdoms : Ipdom.t array;
  options : options;
}

let build_report (options : options) prog (emu : Emulator.t) ~n_threads ~n_warps
    ~per_warp ~skipped_io ~skipped_spin ~skipped_excluded ~coverage =
  let total_instrs = emu.Emulator.thread_instrs in
  let per_function =
    let stats = ref [] in
    Array.iteri
      (fun fid issues ->
        if issues > 0 then
          stats :=
            {
              Metrics.fid;
              func_name = Program.func_name prog fid;
              issues;
              thread_instrs = emu.Emulator.func_instrs.(fid);
              efficiency =
                Metrics.efficiency ~issues
                  ~thread_instrs:emu.Emulator.func_instrs.(fid)
                  ~warp_size:options.warp_size;
              instr_share =
                (if total_instrs = 0 then 0.0
                 else
                   float_of_int emu.Emulator.func_instrs.(fid)
                   /. float_of_int total_instrs);
            }
            :: !stats)
      emu.Emulator.func_issues;
    List.sort
      (fun (a : Metrics.func_stat) (b : Metrics.func_stat) ->
        compare b.thread_instrs a.thread_instrs)
      !stats
  in
  (* hottest divergent blocks: ranked by wasted issue slots
     (issues * warp_size - instrs), keeping clearly-divergent ones *)
  let hot_blocks =
    let acc = ref [] in
    Array.iteri
      (fun fid per_block ->
        Array.iteri
          (fun bid issues ->
            if issues > 0 then begin
              let instrs = emu.Emulator.block_instrs.(fid).(bid) in
              let eff =
                Metrics.efficiency ~issues ~thread_instrs:instrs
                  ~warp_size:options.warp_size
              in
              if eff < 0.9 then
                acc :=
                  {
                    Metrics.block_fid = fid;
                    block_func = Program.func_name prog fid;
                    block_id = bid;
                    src_label =
                      (Program.func prog fid).Program.blocks.(bid).Program.src_label;
                    block_issues = issues;
                    block_instrs = instrs;
                    block_efficiency = eff;
                  }
                  :: !acc
            end)
          per_block)
      emu.Emulator.block_issues;
    List.sort
      (fun (a : Metrics.block_stat) (b : Metrics.block_stat) ->
        compare
          ((b.block_issues * options.warp_size) - b.block_instrs)
          ((a.block_issues * options.warp_size) - a.block_instrs))
      !acc
    |> List.filteri (fun i _ -> i < 10)
  in
  (* blame attribution: divergence sites by lost-lane cost, access sites
     by excess transactions (top 20 each — the Fig. 7 workflow wants the
     head of the ranking, and reports stay diffable) *)
  let src_label fid bid =
    (Program.func prog fid).Program.blocks.(bid).Program.src_label
  in
  let total_slots = emu.Emulator.issues * options.warp_size in
  let divergence_sites =
    let acc = ref [] in
    Emulator.iter_div_sites emu (fun ~fid ~block:bid (c : Emulator.div_site_cell) ->
        if c.Emulator.sc_splits <> 0 || c.Emulator.sc_lost <> 0 then
          acc :=
            {
              Metrics.ds_fid = fid;
              ds_func = Program.func_name prog fid;
              ds_block = bid;
              ds_label = src_label fid bid;
              ds_kind =
                (match c.Emulator.sc_kind with
                | Emulator.Branch_site -> `Branch
                | Emulator.Sync_site -> `Sync);
              ds_splits = c.Emulator.sc_splits;
              ds_lost_lanes = c.Emulator.sc_lost;
              ds_recoverable =
                (if total_slots = 0 then 0.0
                 else float_of_int c.Emulator.sc_lost /. float_of_int total_slots);
            }
            :: !acc);
    !acc
    |> List.sort (fun (a : Metrics.div_site) b ->
           (* full tiebreak to (fid, block), the site key, so the order
              is total and never depends on how the table is walked *)
           compare
             ( b.Metrics.ds_lost_lanes,
               b.Metrics.ds_splits,
               a.Metrics.ds_fid,
               a.Metrics.ds_block )
             ( a.Metrics.ds_lost_lanes,
               a.Metrics.ds_splits,
               b.Metrics.ds_fid,
               b.Metrics.ds_block ))
    |> List.filteri (fun i _ -> i < 20)
  in
  let mem_sites =
    let acc = ref [] in
    Coalesce.iter_sites emu.Emulator.coalesce
      (fun ~fid ~block:bid ~ioff (c : Coalesce.site_counters) ->
        let excess =
          c.Coalesce.a_stack_excess + c.Coalesce.a_heap_excess
          + c.Coalesce.a_global_excess
        in
        if excess <> 0 then
          acc :=
            {
              Metrics.ms_fid = fid;
              ms_func = Program.func_name prog fid;
              ms_block = bid;
              ms_ioff = ioff;
              ms_label = src_label fid bid;
              ms_issues = c.Coalesce.a_issues;
              ms_txns = c.Coalesce.a_txns;
              ms_min_txns = c.Coalesce.a_min_txns;
              ms_excess = excess;
              ms_stack_excess = c.Coalesce.a_stack_excess;
              ms_heap_excess = c.Coalesce.a_heap_excess;
              ms_global_excess = c.Coalesce.a_global_excess;
            }
            :: !acc);
    !acc
    |> List.sort (fun (a : Metrics.mem_site) b ->
           (* tiebreak down to ioff — the full site key — for the same
              total-order reason as divergence_sites above *)
           compare
             ( b.Metrics.ms_excess,
               a.Metrics.ms_fid,
               a.Metrics.ms_block,
               a.Metrics.ms_ioff )
             ( a.Metrics.ms_excess,
               b.Metrics.ms_fid,
               b.Metrics.ms_block,
               b.Metrics.ms_ioff ))
    |> List.filteri (fun i _ -> i < 20)
  in
  let c = emu.Emulator.coalesce in
  (* the coalescing aggregation phase: per-transaction counting happened
     inline during replay; this span covers the roll-up *)
  let total_mem_txns, total_mem_issues, stack_mem, heap_mem, global_mem =
    Obs.span "coalesce" (fun () ->
        let txns, issues = Coalesce.totals c in
        ( txns,
          issues,
          Metrics.segment_stat c.Coalesce.stack,
          Metrics.segment_stat c.Coalesce.heap,
          Metrics.segment_stat c.Coalesce.global ))
  in
  {
    Metrics.warp_size = options.warp_size;
    n_threads;
    n_warps;
    per_warp;
    hot_blocks;
    issues = emu.Emulator.issues;
    thread_instrs = total_instrs;
    simt_efficiency =
      Metrics.efficiency ~issues:emu.Emulator.issues ~thread_instrs:total_instrs
        ~warp_size:options.warp_size;
    per_function;
    divergence_sites;
    mem_sites;
    stack_mem;
    heap_mem;
    global_mem;
    total_mem_txns;
    total_mem_issues;
    skipped_io;
    skipped_spin;
    skipped_excluded;
    lock_acquires = emu.Emulator.lock_acquires;
    barrier_syncs = emu.Emulator.barrier_syncs;
    serializations = emu.Emulator.serializations;
    serialized_instrs = emu.Emulator.serialized_instrs;
    coverage;
  }

(* Add the merged replay state's totals to the replay counters: the
   same totals [build_report] reads, over every site (not the report's
   top-20 lists). *)
let publish_totals (emu : Emulator.t) =
  if !Obs.enabled then begin
    let txns, instrs = Coalesce.totals emu.Emulator.coalesce in
    Obs.Counter.add c_mem_instrs instrs;
    Obs.Counter.add c_mem_txns txns;
    Obs.Counter.add c_div_splits
      (Array.fold_left
         (fun acc (c : Emulator.div_site_cell) -> acc + c.Emulator.sc_splits)
         0 emu.Emulator.div_sites);
    Obs.Counter.add c_lock_serializations emu.Emulator.serializations;
    Obs.Counter.add c_serialized_instrs emu.Emulator.serialized_instrs;
    Obs.Counter.add c_barrier_syncs emu.Emulator.barrier_syncs
  end

(* A warp whose replay aborted (checked pipeline only): the lanes it
   carried (as survivor indices) and the verdict. *)
type warp_failure = {
  fw_warp : int;
  fw_tids : int array;
  fw_diag : Tf_error.diagnostic;
}

(* Exceptions the checked pipeline must not swallow. *)
let fatal = function
  | Out_of_memory | Sys.Break -> true
  | _ -> false

let diag_of_exn ?thread = function
  | Tf_error.Error d -> d
  | Emulator.Emulation_error m ->
      Tf_error.diag ?thread Tf_error.Replay_error "%s" m
  | Serial.Corrupt m -> Tf_error.diag ?thread Tf_error.Corrupt_input "%s" m
  | e ->
      Tf_error.diag ?thread Tf_error.Replay_error "unexpected exception: %s"
        (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Shared replay machinery (batch pipeline and streaming session).

   Replay shard: one per worker domain.  The emulator (and the per-warp
   stat / failure accumulators) are private to the shard, and so is its
   warp-trace emitter (scratch columns reused across the shard's warps);
   the only shared state written during replay is the builder's array of
   sealed warp columns, where each domain stores only its own warps'
   slots.  Shards merge in worker order,
   and [Emulator.merge_into] is additive in every field, so any grouping
   of warps into batches reduces to byte-identical output at any domain
   count (docs/performance.md). *)

type shard = {
  sh_emu : Emulator.t;
  mutable sh_failures : warp_failure list; (* reversed *)
  mutable sh_io : int;
  mutable sh_spin : int;
  mutable sh_excluded : int;
}

(* Replay warp [warp_id] into [sh].  Its lanes are indices into the
   replay batch [traces], whose first trace is survivor [base].  Per-warp
   stats land in the preallocated [stats] slot for [warp_id]: each warp
   is owned by exactly one worker, so the writes are domain-confined and
   no post-merge sort/concat is needed. *)
let shard_replay_warp ~(options : options) ?fuel ~catch sh
    ~(stats : Metrics.warp_stat option array) ~warp_id ~base
    (traces : Thread_trace.t array) lanes =
  let emu = sh.sh_emu in
  let cursors = Array.map (fun l -> Cursor.of_trace traces.(l)) lanes in
  let issues0 = emu.Emulator.issues
  and instrs0 = emu.Emulator.thread_instrs in
  let replay () =
    if not !Obs.enabled then Emulator.run_warp ?fuel emu ~warp_id cursors
    else
      Obs.span ~track:Obs.replay_track
        ~args:[ ("lanes", Obs.itos (Array.length lanes)) ]
        ("warp " ^ Obs.itos warp_id)
        (fun () ->
          Obs.timed h_warp_replay (fun () ->
              let r = Emulator.run_warp ?fuel emu ~warp_id cursors in
              Obs.Counter.incr c_warps;
              r))
  in
  (match replay () with
  | () ->
      let warp_issues = emu.Emulator.issues - issues0
      and warp_instrs = emu.Emulator.thread_instrs - instrs0 in
      stats.(warp_id) <-
        Some
          {
            Metrics.warp_id;
            warp_issues;
            warp_instrs;
            warp_efficiency =
              Metrics.efficiency ~issues:warp_issues ~thread_instrs:warp_instrs
                ~warp_size:options.warp_size;
            lanes = Array.length lanes;
          }
  | exception e when catch && not (fatal e) ->
      Obs.Counter.incr c_warp_failures;
      let diag = diag_of_exn e in
      Log.warn "warp replay aborted"
        ~fields:
          [
            ("warp", string_of_int warp_id);
            ("lanes", string_of_int (Array.length lanes));
            ("diag", Tf_error.to_string diag);
          ];
      sh.sh_failures <-
        {
          fw_warp = warp_id;
          fw_tids = Array.map (( + ) base) lanes;
          fw_diag = diag;
        }
        :: sh.sh_failures);
  Array.iter
    (fun (c : Cursor.t) ->
      sh.sh_io <- sh.sh_io + c.Cursor.skipped_io;
      sh.sh_spin <- sh.sh_spin + c.Cursor.skipped_spin;
      sh.sh_excluded <- sh.sh_excluded + c.Cursor.skipped_excluded)
    cursors

(* Deterministic shard reduction, timed: fold every later shard into the
   first, in worker order (merge-in-place over the first shard's
   preallocated accumulators), summing the scalar skip counters as we
   go.  [tf_par_merge_ns] (and the "par_merge" span) make the fan-in
   overhead visible in `threadfuser profile`. *)
let merge_shards (shards : shard list) : shard =
  Obs.span "par_merge" @@ fun () ->
  let t0 = Obs.now_us () in
  let first, rest =
    match shards with
    | s :: rest -> (s, rest)
    | [] -> assert false (* map_shards always returns >= 1 shard *)
  in
  List.iter
    (fun (r : shard) ->
      Emulator.merge_into ~dst:first.sh_emu r.sh_emu;
      first.sh_failures <- List.rev_append r.sh_failures first.sh_failures;
      first.sh_io <- first.sh_io + r.sh_io;
      first.sh_spin <- first.sh_spin + r.sh_spin;
      first.sh_excluded <- first.sh_excluded + r.sh_excluded)
    rest;
  Obs.Counter.add c_par_merge_ns
    (int_of_float ((Obs.now_us () -. t0) *. 1e3));
  first

(* Total trace events — the cheap up-front work estimate feeding the
   auto -j cap. *)
let work_of (traces : Thread_trace.t array) =
  Array.fold_left
    (fun acc (t : Thread_trace.t) -> acc + Array.length t.Thread_trace.events)
    0 traces

(* Fold the per-call-stack accumulation into root-first named stacks. *)
let fold_flame prog (emu : Emulator.t) =
  Hashtbl.fold
    (fun stack (c : Emulator.flame_cell) acc ->
      {
        frames = List.rev_map (Program.func_name prog) stack;
        fl_issues = c.Emulator.fc_issues;
        fl_lost = c.Emulator.fc_lost;
      }
      :: acc)
    emu.Emulator.flame []
  |> List.sort (fun a b ->
         compare (b.fl_issues, b.fl_lost, a.frames)
           (a.fl_issues, a.fl_lost, b.frames))

(* ------------------------------------------------------------------ *)
(* The pipeline.  [analyze], [analyze_checked] and [Session] all run
   [pipeline]; they differ only in their trace source, in where replay
   batches are cut, and in whether the checked mode is on. *)

(* A trace set as the pipeline sees it, in ingest order: each thread's
   tid and event count up front, plus an in-order pass over the traces
   tagged with their ingest index.  Batch analysis passes an array; a
   streaming session re-decodes its spool on every pass. *)
type source = {
  tids : int array;
  events : int array;
  iter : (int -> Thread_trace.t -> unit) -> unit;
}

let array_source (traces : Thread_trace.t array) =
  {
    tids = Array.map (fun (t : Thread_trace.t) -> t.Thread_trace.tid) traces;
    events =
      Array.map
        (fun (t : Thread_trace.t) -> Array.length t.Thread_trace.events)
        traces;
    iter = (fun f -> Array.iteri f traces);
  }

(* DCFG -> IPDOM -> warp formation and replay, batch by batch -> report,
   over the survivors [iter] yields ([surv_events] holds their event
   counts, by survivor index).  After each survivor (ingest index [i])
   joins the pending batch, [cut i] decides whether to replay the batch
   now; it may only fire on a warp boundary.  Whatever is pending at the
   end is the last batch.  Each batch's shards fold into the running
   accumulator: [Emulator.merge_into] is additive in every field and
   every ranking [build_report] emits is totally ordered, so the output
   depends neither on the cuts nor on the domain count.
   [catch = false] re-raises warp replay failures (the [analyze]
   contract); [catch = true] records them as {!warp_failure}s and keeps
   replaying.  The merged totals are added to the replay counters once,
   here.  [threads_total] / [pre_quarantined] / [pre_dropped] describe
   threads quarantined before replay, so the coverage fields account for
   them. *)
let replay ~(options : options) ?fuel ~catch ~cut ~threads_total
    ~pre_quarantined ~pre_dropped prog ~surv_events ~iter :
    result * warp_failure list =
  let dcfgs =
    Obs.span "dcfg" (fun () ->
        let b = Dcfg.Builder.create prog in
        iter (fun _ tr -> Dcfg.Builder.feed b tr);
        Dcfg.Builder.finish b)
  in
  let ipdoms = Obs.span "ipdom" (fun () -> Ipdom.of_dcfgs dcfgs) in
  let ws = options.warp_size in
  let n_threads = Array.length surv_events in
  (* every batching policy forms ceil(n / warp_size) warps, and only the
     last batch may end in a partial warp *)
  let n_warps = (n_threads + ws - 1) / ws in
  let wt_builder =
    if options.gen_warp_trace then
      Some (Warp_trace.Builder.create ~warp_size:ws ~n_warps (Crack.sites prog))
    else None
  in
  let econfig =
    {
      Emulator.warp_size = ws;
      sync = options.sync;
      reconv = options.reconv;
      record_timeline = options.record_timeline;
    }
  in
  let init () =
    {
      sh_emu = Emulator.create ?warp_trace:wt_builder prog ipdoms econfig;
      sh_failures = [];
      sh_io = 0;
      sh_spin = 0;
      sh_excluded = 0;
    }
  in
  (* per-warp stats land in preallocated warp-id slots (warp-confined
     writes), so the fan-in needs no sort/concat *)
  let stats : Metrics.warp_stat option array = Array.make n_warps None in
  let acc = ref None and base = ref 0 and warp0 = ref 0 and pending = ref [] in
  let replay_batch () =
    let traces = Array.of_list (List.rev !pending) in
    pending := [];
    let warps =
      Obs.span "warp_formation" (fun () ->
          Batching.form options.batching ~warp_size:ws traces)
    in
    let n = Array.length warps in
    Log.debug "pipeline: warps formed"
      ~fields:
        [
          ("threads", string_of_int (Array.length traces));
          ("warps", string_of_int n);
          ("warp_size", string_of_int ws);
        ];
    let domains =
      Par_replay.auto_domains ~requested:options.domains ~items:n
        ~work:(work_of traces)
    in
    let batch_base = !base and batch_warp0 = !warp0 in
    let shards =
      Obs.span "replay"
        ~args:
          [
            ("warps", string_of_int n);
            ("domains", string_of_int domains);
            ("requested_domains", string_of_int options.domains);
          ]
        (fun () ->
          Par_replay.map_shards ~domains ~n ~init ~item:(fun sh w ->
              shard_replay_warp ~options ?fuel ~catch sh ~stats
                ~warp_id:(batch_warp0 + w) ~base:batch_base traces warps.(w)))
    in
    acc := Some (merge_shards (Option.to_list !acc @ shards));
    base := batch_base + Array.length traces;
    warp0 := batch_warp0 + n
  in
  iter (fun i tr ->
      pending := tr :: !pending;
      if cut i then replay_batch ());
  (* the last batch; an empty set still replays one (empty) batch *)
  (match (!pending, !acc) with [], Some _ -> () | _ -> replay_batch ());
  let merged = Option.get !acc in
  let emu = merged.sh_emu in
  let per_warp = Array.to_list stats |> List.filter_map Fun.id in
  (* failure warp ids are unique, so the sort is total *)
  let failures =
    List.sort (fun a b -> compare a.fw_warp b.fw_warp) merged.sh_failures
  in
  let replay_quarantined =
    List.fold_left (fun acc f -> acc + Array.length f.fw_tids) 0 failures
  in
  let replay_dropped =
    List.fold_left
      (fun acc f ->
        Array.fold_left (fun acc i -> acc + surv_events.(i)) acc f.fw_tids)
      0 failures
  in
  let coverage =
    {
      Metrics.threads_total;
      threads_analyzed = n_threads - replay_quarantined;
      threads_quarantined = pre_quarantined + replay_quarantined;
      events_dropped = pre_dropped + replay_dropped;
      warps_failed = List.length failures;
    }
  in
  let report =
    build_report options prog emu ~n_threads ~n_warps ~per_warp
      ~skipped_io:merged.sh_io ~skipped_spin:merged.sh_spin
      ~skipped_excluded:merged.sh_excluded ~coverage
  in
  publish_totals emu;
  if !Obs.enabled then begin
    List.iter
      (fun (s : Metrics.div_site) ->
        Obs.instant ~track:Obs.blame_track "divergence site"
          ~args:
            [
              ("func", s.Metrics.ds_func);
              ("block", string_of_int s.Metrics.ds_block);
              ("label", Option.value ~default:"-" s.Metrics.ds_label);
              ("kind", Metrics.site_kind_name s.Metrics.ds_kind);
              ("splits", string_of_int s.Metrics.ds_splits);
              ("lost_lane_slots", string_of_int s.Metrics.ds_lost_lanes);
            ])
      report.Metrics.divergence_sites;
    List.iter
      (fun (m : Metrics.mem_site) ->
        Obs.instant ~track:Obs.blame_track "memory site"
          ~args:
            [
              ("func", m.Metrics.ms_func);
              ("block", string_of_int m.Metrics.ms_block);
              ("instr", string_of_int m.Metrics.ms_ioff);
              ("label", Option.value ~default:"-" m.Metrics.ms_label);
              ("txns", string_of_int m.Metrics.ms_txns);
              ("min_txns", string_of_int m.Metrics.ms_min_txns);
              ("excess", string_of_int m.Metrics.ms_excess);
            ])
      report.Metrics.mem_sites
  end;
  Log.info "analysis complete"
    ~fields:
      [
        ("warps", string_of_int n_warps);
        ("issues", string_of_int report.Metrics.issues);
        ("thread_instrs", string_of_int report.Metrics.thread_instrs);
        ( "simt_efficiency",
          Printf.sprintf "%.4f" report.Metrics.simt_efficiency );
        ("warp_failures", string_of_int (List.length failures));
      ];
  ( {
      report;
      warp_trace = Option.map Warp_trace.Builder.finish wt_builder;
      timelines =
        (* warp order, under any shard count (each shard accumulates its
           timelines reversed; the merged list interleaves shards) *)
        List.sort
          (fun (a : Timeline.t) b -> compare a.Timeline.warp_id b.Timeline.warp_id)
          emu.Emulator.timelines;
      flame = fold_flame prog emu;
      dcfgs;
      ipdoms;
      options;
    },
    failures )

type checked = {
  result : result;
  diagnostics : Tf_error.diagnostic list;
  quarantined : (int * Tf_error.diagnostic) list;
}

(* Every replay step consumes at least one event across the warp in any
   non-pathological schedule; the factor leaves room for stack churn
   (pushes, pops, reconvergence retargets) on damaged traces. *)
let default_fuel events = (64 * events) + 4096

let check_domains options =
  if options.domains < 1 then
    invalid_arg
      (Printf.sprintf "Analyzer: domains %d must be >= 1" options.domains)

(* Quarantine -> replay -> coverage over [src].  Every thread whose tid
   carries an Error among [diagnostics] is quarantined before replay
   ({!Validate.verdict}).  [checked] turns on the fuel watchdog (default:
   {!default_fuel} of the survivors' events), per-warp failure capture
   and the whole-set crash fallback; [analyze] runs with it off and no
   diagnostics. *)
let pipeline ~(options : options) ?fuel ~checked ~cut ~diagnostics
    prog (src : source) : checked =
  if options.warp_size < 1 || options.warp_size > Mask.max_lanes then
    invalid_arg
      (Printf.sprintf "Analyzer: warp size %d outside 1..%d" options.warp_size
         Mask.max_lanes);
  check_domains options;
  let bad, keep = Validate.verdict ~tids:src.tids diagnostics in
  let n_total = Array.length src.tids in
  let surv_tids = ref [] and surv_events = ref [] and pre_dropped = ref 0 in
  for i = n_total - 1 downto 0 do
    if keep.(i) then begin
      surv_tids := src.tids.(i) :: !surv_tids;
      surv_events := src.events.(i) :: !surv_events
    end
    else pre_dropped := !pre_dropped + src.events.(i)
  done;
  let surv_tids = Array.of_list !surv_tids
  and surv_events = Array.of_list !surv_events in
  let fuel =
    if not checked then None
    else
      Some
        (Option.value fuel
           ~default:(default_fuel (Array.fold_left ( + ) 0 surv_events)))
  in
  let run ~pre_quarantined ~pre_dropped ~surv_events ~iter =
    replay ~options ?fuel ~catch:checked ~cut ~threads_total:n_total
      ~pre_quarantined ~pre_dropped prog ~surv_events ~iter
  in
  match
    run
      ~pre_quarantined:(n_total - Array.length surv_tids)
      ~pre_dropped:!pre_dropped ~surv_events
      ~iter:(fun f -> src.iter (fun i tr -> if keep.(i) then f i tr))
  with
  | result, failures ->
      let replay_quar =
        List.concat_map
          (fun f ->
            Array.to_list f.fw_tids
            |> List.map (fun i -> (surv_tids.(i), f.fw_diag)))
          failures
      in
      {
        result;
        diagnostics = diagnostics @ List.map (fun f -> f.fw_diag) failures;
        quarantined = bad @ replay_quar;
      }
  | exception e when checked && not (fatal e) ->
      (* DCFG / IPDOM / warp formation blew up despite validation: the
         whole trace set is quarantined and the report is empty-but-typed. *)
      let d = diag_of_exn e in
      let result, _ =
        run ~pre_quarantined:n_total
          ~pre_dropped:(Array.fold_left ( + ) 0 src.events)
          ~surv_events:[||] ~iter:ignore
      in
      {
        result;
        diagnostics = diagnostics @ [ d ];
        quarantined =
          bad @ (Array.to_list surv_tids |> List.map (fun tid -> (tid, d)));
      }

(** Run the full analysis pipeline over a trace set. *)
let analyze ?(options = default_options) prog (traces : Thread_trace.t array) :
    result =
  (pipeline ~options ~checked:false ~cut:(fun _ -> false)
     ~diagnostics:[] prog (array_source traces))
    .result

let bounds_of_program prog =
  {
    Validate.func_count = Program.func_count prog;
    block_count = (fun f -> Program.block_count (Program.func prog f));
    block_instrs =
      Some
        (fun f b ->
          Array.length (Program.func prog f).Program.blocks.(b).Program.instrs);
  }

(** Like {!analyze}, but fail typed, bounded and partial-result-capable:
    threads that fail validation are quarantined up front, every warp
    replays under a fuel watchdog, and a warp whose replay aborts
    quarantines its lanes instead of aborting the analysis.  The report's
    coverage fields account for everything dropped. *)
let analyze_checked ?(options = default_options) ?fuel prog
    (traces : Thread_trace.t array) : checked =
  pipeline ~options ?fuel ~checked:true ~cut:(fun _ -> false)
    ~diagnostics:(Validate.all ~bounds:(bounds_of_program prog) traces)
    prog (array_source traces)

(* ------------------------------------------------------------------ *)
(* Streaming sessions: bounded-memory incremental analysis.            *)

module Session = struct
  let default_budget = 64 * 1024 * 1024

  type phase = Ingest | Finished of checked | Closed

  type t = {
    s_options : options;
    s_budget : int;
    s_max_block : int;
    s_prog : Program.t;
    s_bounds : Validate.bounds;
    s_dec : Stream.t;
    s_tmp_dir : string option;
    (* The spool, in ingest order: the oldest threads as TFPACK1 blocks
       (no magic, no count) in a temp file, the newest ones kept
       decoded in [s_tail] (newest first).  The tail is charged its
       [Thread_trace.heap_bytes] and is encoded to the file only when it
       passes half the budget.  Threads with validation errors are
       spooled too: quarantine is by tid and a clean thread sharing a tid
       with a later bad one must still be excluded, exactly as
       [Validate.verdict] does. *)
    mutable s_tail : Thread_trace.t list;
    mutable s_tail_bytes : int;
    mutable s_file : (string * out_channel) option;
    mutable s_spilled : int;
    (* Per-thread metadata, newest first (O(threads), not O(bytes)). *)
    mutable s_n : int;
    mutable s_tids : int list;
    mutable s_seqs : int list list; (* barrier sequences, for the vote *)
    mutable s_events : int list; (* event count per thread *)
    mutable s_sizes : int list; (* decoded heap bytes per thread *)
    mutable s_diags : Tf_error.diagnostic list list;
        (* per-thread diagnostics (each newest-first), only threads that
           produced any *)
    mutable s_failure : Tf_error.diagnostic option;
    mutable s_done : bool;
    mutable s_phase : phase;
  }

  let create ?(options = default_options) ?(budget_bytes = default_budget)
      ?tmp_dir prog =
    if budget_bytes <= 0 then
      invalid_arg "Analyzer.Session.create: budget_bytes must be positive";
    if options.batching <> Batching.Sequential then
      invalid_arg
        "Analyzer.Session.create: streaming analysis requires Sequential \
         batching (other policies need every trace at once)";
    check_domains options;
    let max_block = max budget_bytes 65536 in
    {
      s_options = options;
      s_budget = budget_bytes;
      s_max_block = max_block;
      s_prog = prog;
      s_bounds = bounds_of_program prog;
      s_dec = Stream.create ~max_block_bytes:max_block ();
      s_tmp_dir = tmp_dir;
      s_tail = [];
      s_tail_bytes = 0;
      s_file = None;
      s_spilled = 0;
      s_n = 0;
      s_tids = [];
      s_seqs = [];
      s_events = [];
      s_sizes = [];
      s_diags = [];
      s_failure = None;
      s_done = false;
      s_phase = Ingest;
    }

  let buffered_bytes t = Stream.buffered t.s_dec + t.s_tail_bytes
  let spilled_bytes t = t.s_spilled
  let bytes_ingested t = Stream.bytes_fed t.s_dec
  let threads_ingested t = t.s_n
  let input_done t = t.s_done
  let failure t = t.s_failure

  (* The decoded spool tail stays under half the budget; the other half
     covers the decoder's reassembly buffer and the replay batch, which is
     cut at the same decoded size. *)
  let spill_at t = max 65536 (t.s_budget / 2)

  (* Encode the tail, oldest first, onto the spill file; one block is
     staged at a time. *)
  let spill t =
    let oc =
      match t.s_file with
      | Some (_, oc) -> oc
      | None ->
          let path =
            Filename.temp_file ?temp_dir:t.s_tmp_dir "tfsession" ".spool"
          in
          let oc = open_out_bin path in
          t.s_file <- Some (path, oc);
          oc
    in
    let buf = Buffer.create 4096 in
    List.iter
      (fun tr ->
        Pack.add_block buf tr;
        Buffer.output_buffer oc buf;
        t.s_spilled <- t.s_spilled + Buffer.length buf;
        Buffer.clear buf)
      (List.rev t.s_tail);
    t.s_tail <- [];
    t.s_tail_bytes <- 0

  let require_ingest t what =
    match t.s_phase with
    | Ingest -> ()
    | Finished _ | Closed ->
        invalid_arg
          (Printf.sprintf "Analyzer.Session.%s: session already %s" what
             (match t.s_phase with Closed -> "closed" | _ -> "finished"))

  let add_thread t (trace : Thread_trace.t) =
    require_ingest t "add_thread";
    t.s_tids <- trace.Thread_trace.tid :: t.s_tids;
    t.s_seqs <- Validate.barrier_seq trace :: t.s_seqs;
    t.s_events <- Array.length trace.Thread_trace.events :: t.s_events;
    (let diags = Validate.thread ~bounds:t.s_bounds trace in
     if diags <> [] then t.s_diags <- diags :: t.s_diags);
    let bytes = Thread_trace.heap_bytes trace in
    t.s_sizes <- bytes :: t.s_sizes;
    t.s_tail <- trace :: t.s_tail;
    t.s_tail_bytes <- t.s_tail_bytes + bytes;
    t.s_n <- t.s_n + 1;
    if t.s_tail_bytes > spill_at t then spill t

  let feed t ?off ?len chunk =
    require_ingest t "feed";
    if t.s_failure = None then begin
      Stream.feed t.s_dec ?off ?len chunk;
      let continue_ = ref true in
      while !continue_ do
        match Stream.next t.s_dec with
        | Stream.Need_more -> continue_ := false
        | Stream.Thread tr -> add_thread t tr
        | Stream.End_of_stream ->
            t.s_done <- true;
            (* loop once more only if trailing bytes remain: the decoder
               reports them as a (sticky) protocol error *)
            if Stream.buffered t.s_dec = 0 then continue_ := false
        | Stream.Corrupt d ->
            t.s_failure <- Some d;
            continue_ := false
      done
    end

  (* Iterate the spool in ingest order with each thread's ingest index:
     the spill file (oldest), re-decoded through a bounded decoder so the
     pass holds one block plus one chunk of it, then the decoded tail as
     it is.  Every block is CRC-checked, so a spill file damaged on disk
     raises [Serial.Corrupt], which the checked pipeline reports as
     corrupt input. *)
  let iter_spool t f =
    let dec = Stream.create ~max_block_bytes:t.s_max_block ~header:false () in
    let i = ref 0 in
    let emit tr =
      f !i tr;
      incr i
    in
    let damaged m = raise (Serial.Corrupt ("session spill file damaged: " ^ m)) in
    let rec drain () =
      match Stream.next dec with
      | Stream.Thread tr ->
          emit tr;
          drain ()
      | Stream.Corrupt d -> damaged d.Tf_error.message
      | Stream.Need_more | Stream.End_of_stream -> ()
    in
    (match t.s_file with
    | Some (path, oc) ->
        flush oc;
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            let chunk = Bytes.create 65536 in
            let rec go () =
              let n = input ic chunk 0 (Bytes.length chunk) in
              if n > 0 then begin
                Stream.feed dec ~len:n (Bytes.unsafe_to_string chunk);
                drain ();
                go ()
              end
            in
            go ());
        if Stream.buffered dec > 0 then
          damaged
            (Printf.sprintf "%d byte(s) after the last whole block"
               (Stream.buffered dec))
    | None -> ());
    List.iter emit (List.rev t.s_tail)

  (* The spool as the pipeline's trace source: the retained per-thread
     metadata up front and [iter_spool] for every pass.  Diagnostics come
     in [Validate.all]'s order: per thread in ingest order (newest-first
     within a thread), then the barrier vote.  Replay batches are cut on
     the first warp boundary at which half a budget of decoded traces is
     pending, so replay holds at most that plus one warp, never the whole
     set. *)
  let analyze_spool t : checked =
    let options = t.s_options in
    let arr l = Array.of_list (List.rev l) in
    let tids = arr t.s_tids and sizes = arr t.s_sizes in
    let diagnostics =
      List.concat (List.rev t.s_diags)
      @ Validate.barrier_check ~tids (arr t.s_seqs)
    in
    let pending = ref 0 and bytes = ref 0 in
    let cut i =
      incr pending;
      bytes := !bytes + sizes.(i);
      if !pending mod options.warp_size = 0 && !bytes >= spill_at t then begin
        pending := 0;
        bytes := 0;
        true
      end
      else false
    in
    pipeline ~options ~checked:true ~cut ~diagnostics t.s_prog
      { tids; events = arr t.s_events; iter = iter_spool t }

  let remove_spool t =
    (match t.s_file with
    | Some (path, oc) ->
        (try close_out oc with Sys_error _ -> ());
        (try Sys.remove path with Sys_error _ -> ())
    | None -> ());
    t.s_file <- None;
    t.s_tail <- [];
    t.s_tail_bytes <- 0

  let finish t : checked =
    match t.s_phase with
    | Closed -> invalid_arg "Analyzer.Session.finish: session closed"
    | Finished c -> c
    | Ingest ->
        let c = analyze_spool t in
        let c =
          match t.s_failure with
          | None -> c
          | Some d -> { c with diagnostics = d :: c.diagnostics }
        in
        t.s_phase <- Finished c;
        remove_spool t;
        c

  let close t =
    remove_spool t;
    t.s_phase <- (match t.s_phase with Finished c -> Finished c | _ -> Closed)
end
