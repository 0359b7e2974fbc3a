(** Supervised batch execution of analyses over the workload registry.

    [run] takes a list of {!job}s (one analysis configuration each) and
    executes them under a supervisor that runs every attempt in a
    [Unix.fork]ed child, with per-job SIGKILL deadlines, retry with backoff, and an append-only
    checkpoint journal ({!Journal}) enabling [--resume].  It {e always}
    terminates with a {!manifest} that accounts for every requested job.
    See docs/robustness.md ("Supervision"). *)

module Compiler = Threadfuser_compiler.Compiler
module Exec_fault = Threadfuser_fault.Exec_fault
module Cache = Threadfuser_cache.Cache

(** {1 Jobs} *)

type job = {
  workload : string;  (** registry name *)
  warp_size : int;
  level : Compiler.level;
  threads : int option;  (** [None] = the workload's default count *)
  scale : int;
}

val job :
  ?warp_size:int ->
  ?level:Compiler.level ->
  ?threads:int ->
  ?scale:int ->
  string ->
  job
(** Defaults: warp 32, O1, default threads, scale 1. *)

val job_id : job -> string
(** Stable, filesystem-safe id, e.g. ["bfs.w32.O1.s1"].  Doubles as the
    journal key and the report filename stem. *)

val matrix :
  workloads:string list ->
  warp_sizes:int list ->
  levels:Compiler.level list ->
  ?threads:int ->
  ?scale:int ->
  unit ->
  job list
(** Cross product in workload-major order. *)

(** {1 Outcomes} *)

module Outcome : sig
  type t =
    | Ok  (** clean report *)
    | Degraded  (** partial report (quarantined threads) *)
    | Crashed of string  (** attempt died: exception, signal, bad artifact *)
    | Timeout  (** wall-clock deadline exceeded *)
    | Gave_up of string  (** retry budget exhausted; payload = last failure *)

  val name : t -> string
  val detail : t -> string

  val success : t -> bool
  (** [Ok] or [Degraded]: skippable on resume. *)
end

type source = Fresh | Resumed | Cached

val analyzer_version : string
(** Part of every cache key; bumped when replay or report rendering
    changes semantically, so stale-analyzer artifacts can never hit. *)

type entry = {
  job : job;
  id : string;
  outcome : Outcome.t;
  attempts : int;
  duration_s : float;  (** wall clock of the final attempt *)
  source : source;
  report_file : string option;  (** relative to the suite directory *)
  flight_file : string option;
      (** flight-recorder Chrome-trace dump ([flight/<id>.trace.json],
          with a [.metrics.txt] snapshot beside it) written when the job
          failed terminally; [None] on success or resume *)
}

type manifest = {
  entries : entry list;
      (** one per requested job, in request order; on an interrupted run,
          only the jobs that reached a terminal outcome *)
  quarantined : int;  (** corrupt journal lines set aside during resume *)
  wall_s : float;
  interrupted : bool;  (** stopped by {!request_stop} before finishing *)
  cache_hits : int;  (** jobs served from the artifact cache *)
  cache_misses : int;  (** cache lookups that had to run the job *)
}

val all_ok : manifest -> bool
(** Every entry is [Outcome.Ok] (degraded counts as not-ok here) and the
    run was not interrupted. *)

val failures : manifest -> entry list
(** Entries whose outcome is not a success. *)

val rollup_json : manifest -> Threadfuser_report.Json.t
(** Fleet rollup of a manifest: job count, total attempts, throughput
    ([jobs_per_s]), artifact-cache effectiveness ([cache_hits],
    [cache_misses], [cache_hit_ratio]) and the per-job duration
    distribution (mean/p50/p95/p99/max seconds).  Embedded in
    [manifest.json] under ["rollup"] and in the suite bench's
    [BENCH_suite.json] per level. *)

val manifest_path : string -> string
(** [manifest_path dir] — where {!run} writes [manifest.json]. *)

val pp_manifest : Format.formatter -> manifest -> unit

(** {1 Configuration} *)

type config = {
  parallelism : int;  (** jobs in flight at once *)
  deadline_s : float option;  (** per-attempt wall-clock budget *)
  dir : string;  (** suite directory: journal, reports, manifest *)
  resume : bool;  (** skip journalled successes *)
  chaos : Exec_fault.plan option;
      (** execution-fault injection; its {!Exec_fault.retries} is the
          retry budget (0.25 s backoff, doubling), and without a plan no
          job is retried *)
  cache : Cache.t option;
      (** artifact cache: a verified key hit materializes the cached
          report into the suite directory and journals a terminal [Ok]
          outcome (source [Cached]) without running the job; clean fresh
          runs are written through.  Composes with [resume]: the journal
          check runs first, then the cache. *)
}

val default_config : config
(** parallelism 1, no deadline, dir [".tfsuite"], no resume, no chaos,
    no cache.  Every job replays on one domain
    ({!Threadfuser.Analyzer.default_options}). *)

(** {1 Running} *)

val request_stop : unit -> unit
(** Ask a running {!run} to shut down gracefully (async-signal-safe: call
    it from a SIGINT/SIGTERM handler).  The supervisor kills and reaps
    in-flight children and starts nothing new; every already-journalled
    outcome is fsync'd on disk, and the returned manifest has
    [interrupted = true] — a later [--resume] run re-runs exactly the
    unfinished jobs. *)

val run : ?config:config -> job list -> manifest
(** Execute the batch.  Creates [config.dir] (with [reports/] and [tmp/]),
    streams each terminal outcome to the journal, writes [manifest.json],
    and returns the manifest — entries in request order, duplicates (by
    {!job_id}) dropped with a warning.  Every job carries a small flight
    recorder of supervisor-side lifecycle events (attempts, retries,
    deadline kills); a job that
    fails terminally dumps it to [flight/<id>.trace.json] +
    [.metrics.txt], referenced from its entry.  Raises [Invalid_argument]
    only on an empty job list or nonsensical config (parallelism < 1,
    a deadline that is not finite and > 0); job
    failures are data, not exceptions. *)
