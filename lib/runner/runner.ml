(** The supervised suite runner: crash-isolated parallel analysis of any
    subset of the workload registry (optionally crossed with a config
    matrix), with per-job wall-clock deadlines, retry with backoff, and
    checkpoint/resume.

    The paper's evaluation is a batch of 36 analyses; this module is the
    execution boundary that lets such a batch survive one bad job.  The
    supervisor stays single-threaded and runs every job attempt in a
    [Unix.fork]ed child, up to [parallelism] in flight.  A crashing,
    OOMing or runaway child cannot take the suite down, and deadlines are
    enforced for real with SIGKILL.  (Keeping the parent single-threaded
    also sidesteps fork-in-multithreaded-process hazards.)

    Every terminal outcome is journalled ({!Journal}) so [--resume] skips
    completed work, and the suite always terminates with a {!manifest}
    accounting for 100% of requested jobs.  Instrumented end to end on the
    [Obs] "suite" track.  See docs/robustness.md ("Supervision"). *)

module W = Threadfuser_workloads.Workload
module Registry = Threadfuser_workloads.Registry
module Compiler = Threadfuser_compiler.Compiler
module Analyzer = Threadfuser.Analyzer
module Metrics = Threadfuser.Metrics
module Json = Threadfuser_report.Json
module Report_json = Threadfuser_report.Report_json
module Exec_fault = Threadfuser_fault.Exec_fault
module Cache = Threadfuser_cache.Cache
module Lcg = Threadfuser_util.Lcg
module Obs = Threadfuser_obs.Obs
module Prom = Threadfuser_obs.Prom
module Trace_export = Threadfuser_obs.Trace_export
module Log = Threadfuser_obs.Log
module Stats = Threadfuser_stats.Stats

(* ------------------------------------------------------------------ *)
(* Jobs                                                                *)

type job = {
  workload : string;  (** registry name *)
  warp_size : int;
  level : Compiler.level;
  threads : int option;  (** [None] = the workload's default count *)
  scale : int;
}

let job ?(warp_size = 32) ?(level = Compiler.O1) ?threads ?(scale = 1) workload
    =
  { workload; warp_size; level; threads; scale }

(* The id doubles as the report filename stem and the journal key, so it
   must be stable and filesystem-safe (registry names already are). *)
let job_id j =
  Printf.sprintf "%s.w%d.%s.s%d%s" j.workload j.warp_size
    (Compiler.to_string j.level) j.scale
    (match j.threads with None -> "" | Some t -> Printf.sprintf ".t%d" t)

(** [matrix ~workloads ~warp_sizes ~levels ()] — the cross product, in
    workload-major order. *)
let matrix ~workloads ~warp_sizes ~levels ?threads ?(scale = 1) () =
  List.concat_map
    (fun workload ->
      List.concat_map
        (fun warp_size ->
          List.map
            (fun level -> { workload; warp_size; level; threads; scale })
            levels)
        warp_sizes)
    workloads

(* ------------------------------------------------------------------ *)
(* Outcomes                                                            *)

module Outcome = struct
  type t =
    | Ok  (** clean report *)
    | Degraded  (** partial report (quarantined threads) *)
    | Crashed of string  (** attempt died: exception, signal, bad artifact *)
    | Timeout  (** wall-clock deadline exceeded *)
    | Gave_up of string  (** retry budget exhausted; payload = last failure *)

  let name = function
    | Ok -> "ok"
    | Degraded -> "degraded"
    | Crashed _ -> "crashed"
    | Timeout -> "timeout"
    | Gave_up _ -> "gave-up"

  let detail = function
    | Ok | Degraded -> ""
    | Crashed m | Gave_up m -> m
    | Timeout -> "deadline exceeded"

  (** Successes are resumable; everything else re-runs under [--resume]. *)
  let success = function Ok | Degraded -> true | _ -> false
end

type source = Fresh | Resumed | Cached

let source_name = function
  | Fresh -> "fresh"
  | Resumed -> "resumed"
  | Cached -> "cached"

(* Bump when replay or report rendering changes semantically: it is part
   of every cache key, so stale-analyzer artifacts can never be served. *)
let analyzer_version = "tf-analyzer/1"

(* The cache key is the full input identity of an analysis.  The registry
   name plus scale/thread overrides pins the workload (registry workloads
   are generated deterministically from the suite seed baked into the
   binary); [analyzer_version] pins the code. *)
let cache_key (j : job) =
  {
    Cache.workload =
      (match j.threads with
      | None -> Printf.sprintf "%s.s%d" j.workload j.scale
      | Some t -> Printf.sprintf "%s.s%d.t%d" j.workload j.scale t);
    opt_level =
      (match j.level with
      | Compiler.O0 -> 0
      | Compiler.O1 -> 1
      | Compiler.O2 -> 2
      | Compiler.O3 -> 3);
    warp_size = j.warp_size;
    analyzer_version;
  }

type entry = {
  job : job;
  id : string;
  outcome : Outcome.t;
  attempts : int;
  duration_s : float;  (** wall clock of the final attempt *)
  source : source;
  report_file : string option;  (** relative to the suite directory *)
  flight_file : string option;
      (** flight-recorder trace for terminally-failed jobs, relative to
          the suite directory *)
}

type manifest = {
  entries : entry list;  (** one per requested job, in request order *)
  quarantined : int;  (** corrupt journal lines set aside during resume *)
  wall_s : float;
  interrupted : bool;  (** stopped by {!request_stop} before finishing *)
  cache_hits : int;  (** jobs served from the artifact cache *)
  cache_misses : int;  (** cache lookups that had to run the job *)
}

let all_ok m =
  (not m.interrupted) && List.for_all (fun e -> e.outcome = Outcome.Ok) m.entries

let failures m =
  List.filter (fun e -> not (Outcome.success e.outcome)) m.entries

(* ------------------------------------------------------------------ *)
(* Graceful shutdown: a signal handler (or any thread) requests a stop;
   the supervisor notices on its next poll and kills in-flight children,
   so an interrupted suite exits promptly.
   Unfinished jobs are simply never journalled — the journal holds only
   fsync'd terminal outcomes, which is exactly what [--resume] replays. *)

let stop_requested = Atomic.make false

let request_stop () = Atomic.set stop_requested true

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)

type config = {
  parallelism : int;  (** jobs in flight at once *)
  deadline_s : float option;  (** per-attempt wall-clock budget *)
  dir : string;  (** suite directory: journal, reports, manifest *)
  resume : bool;  (** skip journalled successes *)
  chaos : Exec_fault.plan option;  (** execution-fault injection *)
  cache : Cache.t option;  (** artifact cache: hit = job skipped *)
}

let default_config =
  {
    parallelism = 1;
    deadline_s = None;
    dir = ".tfsuite";
    resume = false;
    chaos = None;
    cache = None;
  }

(* Jobs are deterministic, so only an injected failure is worth a retry. *)
let retries cfg = Option.fold ~none:0 ~some:Exec_fault.retries cfg.chaos

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)

let suite_track = Obs.track "suite"

let c_spawned = Obs.Counter.make "tf_suite_attempts" ~help:"job attempts started"
let c_ok = Obs.Counter.make "tf_suite_jobs_ok" ~help:"jobs completing clean"

let c_degraded =
  Obs.Counter.make "tf_suite_jobs_degraded" ~help:"jobs with partial reports"

let c_crashed = Obs.Counter.make "tf_suite_jobs_crashed" ~help:"jobs crashed"

let c_timeout =
  Obs.Counter.make "tf_suite_jobs_timeout" ~help:"jobs past their deadline"

let c_gave_up =
  Obs.Counter.make "tf_suite_jobs_gave_up" ~help:"jobs out of retry budget"

let c_retries = Obs.Counter.make "tf_suite_retries" ~help:"retry attempts"

let c_resumed =
  Obs.Counter.make "tf_suite_jobs_resumed" ~help:"jobs skipped via --resume"

let bump_outcome = function
  | Outcome.Ok -> Obs.Counter.incr c_ok
  | Outcome.Degraded -> Obs.Counter.incr c_degraded
  | Outcome.Crashed _ -> Obs.Counter.incr c_crashed
  | Outcome.Timeout -> Obs.Counter.incr c_timeout
  | Outcome.Gave_up _ -> Obs.Counter.incr c_gave_up

(* ------------------------------------------------------------------ *)
(* Paths                                                               *)

let reports_subdir = "reports"
let tmp_subdir = "tmp"
let flight_subdir = "flight"
let reports_dir dir = Filename.concat dir reports_subdir
let tmp_dir dir = Filename.concat dir tmp_subdir
let flight_dir dir = Filename.concat dir flight_subdir
let manifest_path dir = Filename.concat dir "manifest.json"
let report_rel id = Filename.concat reports_subdir (id ^ ".json")
let flight_rel id = Filename.concat flight_subdir (id ^ ".trace.json")

let write_text path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let read_text path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* The job body                                                        *)

(** Run one analysis to a report-JSON string.  Deterministic: replay and
    report rendering depend only on the job, never on scheduling. *)
let exec_job (j : job) : string * bool =
  let w = Registry.find j.workload in
  let options =
    { Analyzer.default_options with Analyzer.warp_size = j.warp_size }
  in
  let r =
    W.analyze ~options ~level:j.level ?threads:j.threads ~scale:j.scale w
  in
  let rep = r.Analyzer.report in
  (Report_json.to_string rep, Metrics.degraded rep)

(* 0.25 s base; the jitter stream is derived from the job id, so two jobs
   never share jitter and a re-run waits identically. *)
let backoff_delay ~id ~attempt =
  Backoff.delay_s ~base:0.25
    ~seed:(Lcg.derive ~seed:1 ~index:(Lcg.hash_string id))
    ~attempt

let final_outcome ~attempt failure =
  (* A first-attempt failure keeps its own kind; a failure that survived
     retries is a [Gave_up] carrying the last failure's description. *)
  if attempt = 1 then
    match failure with
    | `Timeout -> Outcome.Timeout
    | `Crash m -> Outcome.Crashed m
  else
    let last =
      match failure with `Timeout -> "deadline exceeded" | `Crash m -> m
    in
    Outcome.Gave_up (Printf.sprintf "%d attempts; last: %s" attempt last)

(* ------------------------------------------------------------------ *)
(* Pending-job state                                                   *)

type pending = {
  pjob : job;
  pid_ : string;  (** job id *)
  pidx : int;  (** original request order *)
  mutable attempt : int;  (** next attempt, 1-based *)
  mutable eligible : float;  (** unix time when the next attempt may start *)
  pfl : Obs.Flight.t;  (** per-job flight recorder (supervisor-side ring) *)
}

(* The per-job ring is small: supervisor-side lifecycle notes are a
   handful per attempt. *)
let job_flight_capacity = 512

let fl_note (p : pending) ?(args = []) name =
  Obs.Flight.note p.pfl ~track:suite_track ~args name

(* A job out of retry budget dumps its flight recorder next to the
   reports: the ring's Chrome-trace timeline plus a metrics snapshot,
   named by job id so the manifest entry and the dump correlate. *)
let dump_job_flight cfg (p : pending) (outcome : Outcome.t) =
  fl_note p
    ~args:
      [
        ("outcome", Outcome.name outcome); ("detail", Outcome.detail outcome);
      ]
    "job failed terminally";
  let base = Filename.concat (flight_dir cfg.dir) p.pid_ in
  try
    Journal.mkdir_p (flight_dir cfg.dir);
    let snap = Obs.flight_snapshot p.pfl in
    Trace_export.to_file (base ^ ".trace.json") snap;
    Prom.to_file (base ^ ".metrics.txt") snap;
    Log.warn
      ~fields:[ ("job", p.pid_); ("trace", base ^ ".trace.json") ]
      "flight recorder dumped";
    Some (flight_rel p.pid_)
  with Sys_error m ->
    Log.err ~fields:[ ("job", p.pid_); ("error", m) ] "flight dump failed";
    None

(* ------------------------------------------------------------------ *)
(* The fork supervisor                                                 *)

(* Child exit codes.  0 and [exit_degraded] both carry a report artifact;
   anything else is a crash. *)
let exit_degraded_child = 10
let exit_crashed_child = 20
let exit_injected = 42

type running = {
  rp : pending;
  pid : int;
  started_wall : float;
  started_obs : float;
  tmp : string;
}

let child_exec cfg (p : pending) tmp : 'never =
  (* No [Stdlib.exit] in the child: at_exit would flush buffers the parent
     also owns.  Everything funnels into [Unix._exit]. *)
  let code =
    try
      (match cfg.chaos with
      | None -> ()
      | Some plan -> (
          match Exec_fault.decide plan ~job:p.pid_ ~attempt:p.attempt with
          | Exec_fault.No_fault -> ()
          | Exec_fault.Stall s -> Unix.sleepf s
          | Exec_fault.Crash ->
              write_text (tmp ^ ".err") "injected crash";
              Unix._exit exit_injected));
      let json, degraded = exec_job p.pjob in
      write_text tmp (json ^ "\n");
      if degraded then exit_degraded_child else 0
    with e ->
      (try write_text (tmp ^ ".err") (Printexc.to_string e) with _ -> ());
      exit_crashed_child
  in
  Unix._exit code

let spawn_counter = ref 0

let spawn_child cfg (p : pending) : running =
  incr spawn_counter;
  (* pid + counter in the tmp name: an orphan from a killed previous
     supervisor writing its stale result can never collide with ours *)
  let tmp =
    Filename.concat (tmp_dir cfg.dir)
      (Printf.sprintf "%s.%d.%d.json" p.pid_ (Unix.getpid ()) !spawn_counter)
  in
  flush stdout;
  flush stderr;
  let started_obs = Obs.now_us () in
  match Unix.fork () with
  | 0 -> child_exec cfg p tmp
  | pid ->
      Obs.Counter.incr c_spawned;
      fl_note p
        ~args:[ ("attempt", Obs.itos p.attempt); ("pid", Obs.itos pid) ]
        "attempt spawned";
      Log.debug
        ~fields:
          [
            ("job", p.pid_);
            ("attempt", string_of_int p.attempt);
            ("pid", string_of_int pid);
          ]
        "job attempt spawned";
      { rp = p; pid; started_wall = Unix.gettimeofday (); started_obs; tmp }

(* Read back and validate the child's artifact before trusting it: a
   half-written file from a child that died mid-write must classify as a
   crash, not poison the reports directory. *)
let harvest_artifact cfg (r : running) : (string, string) result =
  match read_text r.tmp with
  | exception Sys_error m -> Error (Printf.sprintf "no result artifact (%s)" m)
  | contents -> (
      match Json.parse contents with
      | Error m -> Error (Printf.sprintf "result artifact unparseable: %s" m)
      | Ok j -> (
          match Report_json.validate j with
          | Error m -> Error (Printf.sprintf "result artifact invalid: %s" m)
          | Ok () ->
              let rel = report_rel r.rp.pid_ in
              Sys.rename r.tmp (Filename.concat cfg.dir rel);
              Ok rel))

let cleanup_attempt_files (r : running) =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ r.tmp; r.tmp ^ ".err" ]

let err_detail (r : running) fallback =
  match read_text (r.tmp ^ ".err") with
  | s when String.trim s <> "" -> Printf.sprintf "%s: %s" fallback (String.trim s)
  | _ -> fallback
  | exception Sys_error _ -> fallback

type attempt_result =
  | A_success of bool * string  (** degraded?, dir-relative report *)
  | A_failed of [ `Crash of string | `Timeout ]

let classify_exit cfg (r : running) status : attempt_result =
  match status with
  | Unix.WEXITED c when c = 0 || c = exit_degraded_child -> (
      match harvest_artifact cfg r with
      | Ok rel -> A_success (c = exit_degraded_child, rel)
      | Error m -> A_failed (`Crash m))
  | Unix.WEXITED c ->
      A_failed (`Crash (err_detail r (Printf.sprintf "exit code %d" c)))
  | Unix.WSIGNALED s -> A_failed (`Crash (Printf.sprintf "killed by signal %d" s))
  | Unix.WSTOPPED s -> A_failed (`Crash (Printf.sprintf "stopped by signal %d" s))

let run_fork cfg (pendings : pending list) ~(finish : entry -> unit) =
  (* fork-in-multithreaded-process is the classic footgun: join any helper
     domains a previous analysis parked in the replay pool so every child
     starts single-threaded.  Children replay on one domain. *)
  Threadfuser.Par_replay.quiesce ();
  let waiting = ref pendings in
  let running = ref [] in
  let last_depth = ref (-1) in
  let note_depth () =
    if !Obs.enabled then begin
      let d = List.length !waiting + List.length !running in
      if d <> !last_depth then begin
        last_depth := d;
        Obs.instant ~track:suite_track "queue_depth"
          ~args:
            [
              ("waiting", string_of_int (List.length !waiting));
              ("running", string_of_int (List.length !running));
            ]
      end
    end
  in
  let span (r : running) outcome =
    if !Obs.enabled then
      Obs.complete ~track:suite_track r.rp.pid_
        ~ts:r.started_obs
        ~dur:(Obs.now_us () -. r.started_obs)
        ~args:
          [
            ("attempt", string_of_int r.rp.attempt);
            ("outcome", outcome);
          ]
  in
  let finalize (r : running) dur result =
    match result with
    | A_success (degraded, rel) ->
        span r (if degraded then "degraded" else "ok");
        fl_note r.rp
          ~args:[ ("attempt", Obs.itos r.rp.attempt) ]
          (if degraded then "attempt degraded" else "attempt ok");
        finish
          {
            job = r.rp.pjob;
            id = r.rp.pid_;
            outcome = (if degraded then Outcome.Degraded else Outcome.Ok);
            attempts = r.rp.attempt;
            duration_s = dur;
            source = Fresh;
            report_file = Some rel;
            flight_file = None;
          }
    | A_failed failure ->
        cleanup_attempt_files r;
        let failure_name =
          match failure with `Timeout -> "timeout" | `Crash _ -> "crash"
        in
        span r failure_name;
        fl_note r.rp
          ~args:[ ("attempt", Obs.itos r.rp.attempt); ("kind", failure_name) ]
          "attempt failed";
        if r.rp.attempt <= retries cfg then begin
          (* budget left: back off and requeue *)
          Obs.Counter.incr c_retries;
          let delay = backoff_delay ~id:r.rp.pid_ ~attempt:r.rp.attempt in
          fl_note r.rp
            ~args:[ ("backoff_s", Printf.sprintf "%.3f" delay) ]
            "retrying after backoff";
          Log.info
            ~fields:
              [
                ("job", r.rp.pid_);
                ("attempt", string_of_int r.rp.attempt);
                ("kind", failure_name);
                ("backoff_s", Printf.sprintf "%.3f" delay);
              ]
            "job attempt failed; retrying";
          r.rp.attempt <- r.rp.attempt + 1;
          r.rp.eligible <- Unix.gettimeofday () +. delay;
          waiting := !waiting @ [ r.rp ]
        end
        else begin
          let outcome = final_outcome ~attempt:r.rp.attempt failure in
          let flight_file = dump_job_flight cfg r.rp outcome in
          finish
            {
              job = r.rp.pjob;
              id = r.rp.pid_;
              outcome;
              attempts = r.rp.attempt;
              duration_s = dur;
              source = Fresh;
              report_file = None;
              flight_file;
            }
        end
  in
  while !waiting <> [] || !running <> [] do
    if Atomic.get stop_requested then begin
      (* interrupted: kill and reap every child, drop every queued job.
         Nothing is journalled for them, so --resume re-runs exactly
         these; the journal already holds an fsync'd line per finished
         job. *)
      List.iter
        (fun (r : running) ->
          (try Unix.kill r.pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] r.pid) with Unix.Unix_error _ -> ());
          cleanup_attempt_files r)
        !running;
      Log.warn
        ~fields:
          [
            ("killed", string_of_int (List.length !running));
            ("dropped", string_of_int (List.length !waiting));
          ]
        "suite interrupted; unfinished jobs left for --resume";
      running := [];
      waiting := []
    end;
    let now = Unix.gettimeofday () in
    (* spawn every eligible job up to the parallelism cap, request order *)
    let rec fill () =
      if List.length !running < cfg.parallelism then begin
        let eligible, not_yet =
          List.partition (fun p -> p.eligible <= now) !waiting
        in
        match List.sort (fun a b -> compare a.pidx b.pidx) eligible with
        | [] -> ()
        | p :: rest ->
            waiting := rest @ not_yet;
            running := !running @ [ spawn_child cfg p ];
            fill ()
      end
    in
    fill ();
    note_depth ();
    (* reap / enforce deadlines *)
    let still = ref [] in
    List.iter
      (fun (r : running) ->
        match Unix.waitpid [ Unix.WNOHANG ] r.pid with
        | 0, _ -> (
            match cfg.deadline_s with
            | Some d when Unix.gettimeofday () -. r.started_wall > d ->
                (try Unix.kill r.pid Sys.sigkill
                 with Unix.Unix_error _ -> ());
                ignore (Unix.waitpid [] r.pid);
                fl_note r.rp
                  ~args:[ ("deadline_s", Printf.sprintf "%.2f" d) ]
                  "attempt killed at deadline";
                Log.warn
                  ~fields:
                    [
                      ("job", r.rp.pid_);
                      ("attempt", string_of_int r.rp.attempt);
                      ("deadline_s", Printf.sprintf "%.2f" d);
                    ]
                  "job killed at deadline";
                finalize r (Unix.gettimeofday () -. r.started_wall)
                  (A_failed `Timeout)
            | _ -> still := r :: !still)
        | _, status ->
            finalize r
              (Unix.gettimeofday () -. r.started_wall)
              (classify_exit cfg r status))
      !running;
    running := List.rev !still;
    note_depth ();
    if !running = [] && !waiting <> [] then begin
      (* everyone is backing off: sleep to the soonest eligibility *)
      let soonest =
        List.fold_left (fun acc p -> Float.min acc p.eligible) infinity !waiting
      in
      let dt = soonest -. Unix.gettimeofday () in
      if dt > 0. then Unix.sleepf (Float.min dt 0.25)
    end
    else if !running <> [] then Unix.sleepf 0.004
  done

(* ------------------------------------------------------------------ *)
(* Manifest                                                            *)

let outcome_of_record (r : Journal.record) =
  match r.Journal.outcome with
  | "ok" -> Outcome.Ok
  | "degraded" -> Outcome.Degraded
  | "timeout" -> Outcome.Timeout
  | "gave-up" -> Outcome.Gave_up r.Journal.detail
  | _ -> Outcome.Crashed r.Journal.detail

let entry_to_json (e : entry) =
  Json.Obj
    [
      ("id", Json.String e.id);
      ("workload", Json.String e.job.workload);
      ("warp_size", Json.Int e.job.warp_size);
      ("opt_level", Json.String (Compiler.to_string e.job.level));
      ("scale", Json.Int e.job.scale);
      ( "threads",
        match e.job.threads with Some t -> Json.Int t | None -> Json.Null );
      ("outcome", Json.String (Outcome.name e.outcome));
      ("detail", Json.String (Outcome.detail e.outcome));
      ("attempts", Json.Int e.attempts);
      ("duration_s", Json.Float e.duration_s);
      ("source", Json.String (source_name e.source));
      ( "report",
        match e.report_file with Some f -> Json.String f | None -> Json.Null );
      ( "flight",
        match e.flight_file with Some f -> Json.String f | None -> Json.Null );
    ]

let count pred m = List.length (List.filter pred m.entries)

(* Fleet rollup: the manifest's per-job durations aggregated into the
   latency distribution and throughput a fleet dashboard wants, so suite
   consumers need not recompute them from the entries. *)
let rollup_json m =
  let durs = Array.of_list (List.map (fun e -> e.duration_s) m.entries) in
  let n = Array.length durs in
  let attempts = List.fold_left (fun a e -> a + e.attempts) 0 m.entries in
  let pct q = if n = 0 then 0.0 else Stats.percentile ~q durs in
  let mean =
    if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 durs /. float_of_int n
  in
  let lookups = m.cache_hits + m.cache_misses in
  Json.Obj
    [
      ("jobs", Json.Int n);
      ("attempts_total", Json.Int attempts);
      ( "jobs_per_s",
        Json.Float (if m.wall_s > 0.0 then float_of_int n /. m.wall_s else 0.0)
      );
      ("cache_hits", Json.Int m.cache_hits);
      ("cache_misses", Json.Int m.cache_misses);
      ( "cache_hit_ratio",
        Json.Float
          (if lookups = 0 then 0.0
           else float_of_int m.cache_hits /. float_of_int lookups) );
      ( "duration_s",
        Json.Obj
          [
            ("mean", Json.Float mean);
            ("p50", Json.Float (pct 0.5));
            ("p95", Json.Float (pct 0.95));
            ("p99", Json.Float (pct 0.99));
            ("max", Json.Float (Array.fold_left Float.max 0.0 durs));
          ] );
    ]

let manifest_to_json m =
  let by o = count (fun e -> Outcome.name e.outcome = o) m in
  Json.Obj
    [
      ("schema", Json.String "tfsuite-manifest/1");
      ("jobs", Json.Int (List.length m.entries));
      ( "counts",
        Json.Obj
          [
            ("ok", Json.Int (by "ok"));
            ("degraded", Json.Int (by "degraded"));
            ("crashed", Json.Int (by "crashed"));
            ("timeout", Json.Int (by "timeout"));
            ("gave_up", Json.Int (by "gave-up"));
            ("resumed", Json.Int (count (fun e -> e.source = Resumed) m));
            ("cached", Json.Int (count (fun e -> e.source = Cached) m));
          ] );
      ("quarantined_journal_lines", Json.Int m.quarantined);
      ("wall_s", Json.Float m.wall_s);
      ("interrupted", Json.Bool m.interrupted);
      ("rollup", rollup_json m);
      ("entries", Json.List (List.map entry_to_json m.entries));
    ]

let write_manifest dir m =
  write_text (manifest_path dir) (Json.to_string (manifest_to_json m) ^ "\n")

let pp_entry ppf (e : entry) =
  Fmt.pf ppf "  %-36s %-9s %2d attempt%s  %7.2fs  %s%s" e.id
    (Outcome.name e.outcome) e.attempts
    (if e.attempts = 1 then " " else "s")
    e.duration_s (source_name e.source)
    (match Outcome.detail e.outcome with
    | "" -> ""
    | d -> Printf.sprintf "  (%s)" d)

let pp_manifest ppf m =
  let by o = count (fun e -> Outcome.name e.outcome = o) m in
  Fmt.pf ppf
    "suite: %d job(s) — %d ok, %d degraded, %d crashed, %d timeout, %d \
     gave-up; %d resumed, %d corrupt journal line(s) quarantined — %.2f s@."
    (List.length m.entries) (by "ok") (by "degraded") (by "crashed")
    (by "timeout") (by "gave-up")
    (count (fun e -> e.source = Resumed) m)
    m.quarantined m.wall_s;
  if m.interrupted then
    Fmt.pf ppf
      "suite INTERRUPTED — unfinished jobs are not listed; run with \
       --resume to complete them@.";
  List.iter (fun e -> Fmt.pf ppf "%a@." pp_entry e) m.entries

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

let run ?(config = default_config) (jobs : job list) : manifest =
  if jobs = [] then invalid_arg "Runner.run: no jobs";
  if config.parallelism < 1 then invalid_arg "Runner.run: parallelism < 1";
  let bad d = not (Float.is_finite d && d > 0.) in
  if Option.fold ~none:false ~some:bad config.deadline_s then
    invalid_arg "Runner.run: deadline must be finite and > 0";
  (* a stop request only spans one batch: a resume run in the same
     process starts fresh *)
  Atomic.set stop_requested false;
  let t_start = Unix.gettimeofday () in
  (* dedup while preserving request order: the id is the journal key, so a
     duplicate would race itself *)
  let seen = Hashtbl.create 64 in
  let jobs =
    List.filter
      (fun j ->
        let id = job_id j in
        if Hashtbl.mem seen id then begin
          Log.warn ~fields:[ ("job", id) ] "duplicate suite job dropped";
          false
        end
        else begin
          Hashtbl.add seen id ();
          true
        end)
      jobs
  in
  Journal.mkdir_p (reports_dir config.dir);
  Journal.mkdir_p (tmp_dir config.dir);
  let prior =
    if config.resume then Journal.load config.dir
    else { Journal.records = Hashtbl.create 1; quarantined = 0 }
  in
  let writer = Journal.open_writer ~fresh:(not config.resume) config.dir in
  let results : (string, entry) Hashtbl.t = Hashtbl.create 64 in
  let cache_hits = ref 0 and cache_misses = ref 0 in
  let finish (e : entry) =
    Hashtbl.replace results e.id e;
    bump_outcome e.outcome;
    (* write-through: only clean fresh runs are cached, so a hit always
       certifies a verified, non-degraded report *)
    (match config.cache with
    | Some c when e.source = Fresh && e.outcome = Outcome.Ok -> (
        match e.report_file with
        | Some rel -> (
            try
              Cache.put c ~key:(cache_key e.job)
                (read_text (Filename.concat config.dir rel))
            with exn ->
              Log.warn
                ~fields:
                  [ ("job", e.id); ("error", Printexc.to_string exn) ]
                "cache put failed; continuing uncached")
        | None -> ())
    | _ -> ());
    Journal.append writer
      {
        Journal.id = e.id;
        outcome = Outcome.name e.outcome;
        detail = Outcome.detail e.outcome;
        attempts = e.attempts;
        duration_s = e.duration_s;
        report_file = e.report_file;
      };
    Log.info
      ~fields:
        [
          ("job", e.id);
          ("outcome", Outcome.name e.outcome);
          ("attempts", string_of_int e.attempts);
        ]
      "job finished"
  in
  Log.info
    ~fields:
      [
        ("jobs", string_of_int (List.length jobs));
        ("parallelism", string_of_int config.parallelism);
        ("resume", string_of_bool config.resume);
      ]
    "suite starting";
  (* artifact-cache lookup: a verified hit materializes the report into
     the suite directory and journals a terminal outcome, so [--resume]
     composes with hits exactly as with any other success *)
  let try_cache (j : job) ~id =
    match config.cache with
    | None -> false
    | Some c -> (
        let on_corrupt d =
          Log.warn
            ~fields:
              [
                ("job", id);
                ("error", Threadfuser_util.Tf_error.to_string d);
              ]
            "corrupt cache entry quarantined"
        in
        match
          Cache.find ~on_corrupt c ~key:(cache_key j)
        with
        | exception exn ->
            Log.warn
              ~fields:[ ("job", id); ("error", Printexc.to_string exn) ]
              "cache lookup failed; running job";
            incr cache_misses;
            false
        | None ->
            incr cache_misses;
            false
        | Some payload ->
            incr cache_hits;
            let rel = report_rel id in
            write_text (Filename.concat config.dir rel) payload;
            finish
              {
                job = j;
                id;
                outcome = Outcome.Ok;
                attempts = 0;
                duration_s = 0.0;
                source = Cached;
                report_file = Some rel;
                flight_file = None;
              };
            true)
  in
  (* resume: journalled successes (already re-validated by Journal.load)
     become manifest entries without running anything *)
  let pendings =
    List.mapi (fun i j -> (i, j)) jobs
    |> List.filter_map (fun (i, j) ->
           let id = job_id j in
           match Hashtbl.find_opt prior.Journal.records id with
           | Some r when Journal.success r ->
               Obs.Counter.incr c_resumed;
               Hashtbl.replace results id
                 {
                   job = j;
                   id;
                   outcome = outcome_of_record r;
                   attempts = r.Journal.attempts;
                   duration_s = r.Journal.duration_s;
                   source = Resumed;
                   report_file = r.Journal.report_file;
                   flight_file = None;
                 };
               None
           | _ ->
               if try_cache j ~id then None
               else
                 Some
                   {
                     pjob = j;
                     pid_ = id;
                     pidx = i;
                     attempt = 1;
                     eligible = 0.0;
                     pfl = Obs.Flight.create ~capacity:job_flight_capacity id;
                   })
  in
  Fun.protect
    ~finally:(fun () -> Journal.close writer)
    (fun () ->
      if pendings <> [] then run_fork config pendings ~finish);
  let interrupted = Atomic.get stop_requested in
  (* on an interrupt some jobs never produced an entry; the manifest
     still accounts for every finished one *)
  let entries =
    List.filter_map (fun j -> Hashtbl.find_opt results (job_id j)) jobs
  in
  let m =
    {
      entries;
      quarantined = prior.Journal.quarantined;
      wall_s = Unix.gettimeofday () -. t_start;
      interrupted;
      cache_hits = !cache_hits;
      cache_misses = !cache_misses;
    }
  in
  write_manifest config.dir m;
  m
