(** The ThreadFuser analyzer — the framework's public entry point
    (paper Fig. 3b):

    {v traces -> DCFG -> IPDOM -> warp formation -> SIMT-stack replay
       -> efficiency / divergence report (+ warp traces) v}

    Typical use:

    {[
      let machine = Machine.create prog in
      (* ... write inputs into (Machine.memory machine) ... *)
      let run = Machine.run_workers machine ~worker ~args in
      let result = Analyzer.analyze prog run.Machine.traces in
      Fmt.pr "%a@." Metrics.pp_summary result.Analyzer.report
    ]} *)

type options = {
  warp_size : int;
      (** lanes per warp, 1..{!Mask.max_lanes}; analysis raises
          [Invalid_argument] outside that range *)
  batching : Batching.t;
  sync : Emulator.sync_mode;
  reconv : Emulator.reconv_mode;
  gen_warp_trace : bool;  (** also produce the simulator trace *)
  record_timeline : bool;  (** record per-warp occupancy timelines *)
  domains : int;
      (** replay worker domains; warps are sharded across an OCaml 5
          domain pool and reduced deterministically, so any value >= 1
          yields byte-identical output (docs/performance.md).  1 =
          sequential replay in the calling domain; below 1 every entry
          point raises [Invalid_argument].  The request is capped
          by trace volume ({!Par_replay.auto_domains}), so a workload too
          small to amortize domain hand-offs replays on fewer domains;
          only the wall-clock changes. *)
}

(** warp 32, sequential batching, lock serialization on, IPDOM
    reconvergence, no warp-trace generation, 1 replay domain. *)
val default_options : options

(** One folded call stack of the replay flamegraph ({!result.flame}):
    frames root-first, weighted both by warp lock-step issues and by
    lost-lane issue slots (inactive lanes x issues under that stack). *)
type flame_stack = {
  frames : string list;  (** function names, root first *)
  fl_issues : int;
  fl_lost : int;
}

type result = {
  report : Metrics.report;
  warp_trace : Warp_trace.t option;
  timelines : Timeline.t list;  (** in warp order; empty unless recorded *)
  flame : flame_stack list;
      (** folded replay stacks, by descending issue weight *)
  dcfgs : Threadfuser_cfg.Dcfg.t array;
  ipdoms : Threadfuser_cfg.Ipdom.t array;
  options : options;
}

(** Run the full analysis pipeline over a trace set.  Trusts its input:
    malformed traces raise ({!Emulator.Emulation_error} or the typed
    [Tf_error.Error]).  Use {!analyze_checked} for untrusted traces.
    With the collector on, the replay counters
    ([tf_divergence_splits_total], [tf_mem_transactions_total], ...) grow
    by the report's totals, once per call; so do {!analyze_checked}'s
    and {!Session.finish}'s. *)
val analyze :
  ?options:options ->
  Threadfuser_prog.Program.t ->
  Threadfuser_trace.Thread_trace.t array ->
  result

(** Result of the checked pipeline: a (possibly partial) analysis plus
    everything it refused to analyze.  [result.report.coverage] accounts
    for the quarantined threads, so partial reports are explicit. *)
type checked = {
  result : result;
  diagnostics : Threadfuser_util.Tf_error.diagnostic list;
      (** validation diagnostics (including warnings) + replay verdicts *)
  quarantined : (int * Threadfuser_util.Tf_error.diagnostic) list;
      (** (tid, why) per thread excluded from the report *)
}

(** Graceful-degradation variant of {!analyze} for untrusted traces
    (docs/robustness.md): validates every thread against the program
    ({!Threadfuser_trace.Validate}), quarantines threads that fail,
    replays the surviving warp lanes under a fuel watchdog, and
    quarantines the lanes of any warp whose replay ends in a typed
    [Timeout] / [Deadlock] / desync verdict instead of aborting.  Never
    raises on malformed trace data. *)
val analyze_checked :
  ?options:options ->
  ?fuel:int ->
  Threadfuser_prog.Program.t ->
  Threadfuser_trace.Thread_trace.t array ->
  checked

(** {1 Streaming sessions}

    Bounded-memory incremental analysis: feed the chunks of a TFPACK1
    file as they arrive, then {!Session.finish} for a report that is
    byte-identical to {!analyze_checked} over the same traces — at any
    chunking, any session budget and any [options.domains].

    There is one pipeline with two trace sources.  {!analyze} and
    {!analyze_checked} hand it an array and replay it as one batch; a
    session hands it its spool.  Ingested threads are validated on
    arrival and kept decoded in the spool's tail, each charged its
    {!Threadfuser_trace.Thread_trace.heap_bytes}.  Only when the tail
    passes half the budget is it encoded as TFPACK1 blocks
    ({!Threadfuser_trace.Pack.add_block}) onto a temp file, so memory is bounded by the per-session
    budget, not the trace length, and a session within budget never
    encodes or re-decodes a trace.  Each pipeline pass (one for the
    DCFG, one for replay) re-decodes the spill file through
    {!Threadfuser_trace.Stream}, then walks the decoded tail; replay is cut at the first warp boundary where half a
    budget of decoded traces is pending.  Quarantine, fuel, coverage,
    crash fallback and instrumentation are the same code on both
    sources.  Used by [threadfuser serve] (docs/robustness.md §8). *)
module Session : sig
  type t

  (** Default per-session budget (64 MiB). *)
  val default_budget : int

  (** [create prog] starts a session.  [budget_bytes] bounds both the
      in-memory spool (decoder reassembly plus the decoded tail) and a
      single block's payload (at least 64 KiB);
      [tmp_dir] hosts the spill file (default: [Filename.temp_dir_name]).
      @raise Invalid_argument if [budget_bytes <= 0],
        [options.domains < 1] or [options.batching] is not [Sequential]
        (other policies need every trace at once, which streaming cannot
        provide). *)
  val create :
    ?options:options ->
    ?budget_bytes:int ->
    ?tmp_dir:string ->
    Threadfuser_prog.Program.t ->
    t

  (** Feed a chunk of a TFPACK1 trace set ({!Threadfuser_trace.Pack.encode}:
      magic, thread count, blocks), any chunk boundaries.  Decoded
      threads are validated and spooled immediately.  Corruption is
      recorded ({!failure}) rather than raised; chunks fed after it are
      discarded, so a hostile stream cannot grow the session. *)
  val feed : t -> ?off:int -> ?len:int -> string -> unit

  (** Ingest an already-decoded thread directly (in-process use).  The
      session keeps the trace itself, not a copy, until it spills. *)
  val add_thread : t -> Threadfuser_trace.Thread_trace.t -> unit

  (** Every block the stream's header counted has been consumed. *)
  val input_done : t -> bool

  (** The sticky stream-corruption diagnostic, if any. *)
  val failure : t -> Threadfuser_util.Tf_error.diagnostic option

  val threads_ingested : t -> int
  val bytes_ingested : t -> int

  (** Bytes currently held in memory (decoder reassembly + the decoded
      spool tail's heap bytes) — the quantity the budget bounds. *)
  val buffered_bytes : t -> int

  (** Encoded bytes written to the spill file so far. *)
  val spilled_bytes : t -> int

  (** Run the checked pipeline over everything ingested, exactly as
      {!analyze_checked} would over the same traces; a stream {!failure}
      is prepended to [diagnostics].  A spill file damaged on disk fails
      its CRC and yields the crash fallback's [Corrupt_input] report.
      Idempotent; the spool is released. *)
  val finish : t -> checked

  (** Release the spool and temp file.  Safe to call at any point (e.g.
      on a dropped connection); a finished session keeps its result. *)
  val close : t -> unit
end
