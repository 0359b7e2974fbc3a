(* The supervised suite runner: manifest accounting under crashes, stalls
   and deadlines; retry/backoff; the fsync'd checkpoint journal and
   --resume (including a real SIGKILL of the supervisor and a graceful
   [request_stop]); and determinism of report artifacts under
   parallelism. *)

module Runner = Threadfuser_runner.Runner
module Journal = Threadfuser_runner.Journal
module Backoff = Threadfuser_runner.Backoff
module Exec_fault = Threadfuser_fault.Exec_fault
module Obs = Threadfuser_obs.Obs
module Json = Threadfuser_report.Json

(* Unique scratch directory per test; pid-qualified so orphans from a
   previous killed run never collide. *)
let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "tfsuite-test-%d-%d" (Unix.getpid ()) !dir_counter)

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let small = [ "vectoradd"; "bfs"; "uncoalesced" ]

let config ?(parallelism = 2) ?deadline_s ?(resume = false) ?chaos dir =
  {
    Runner.default_config with
    parallelism;
    deadline_s;
    resume;
    chaos;
    dir;
  }

let outcome_names m =
  List.map (fun e -> Runner.Outcome.name e.Runner.outcome) m.Runner.entries

(* ------------------------------------------------------------------ *)
(* Job ids and matrices                                                 *)

let test_job_id () =
  Alcotest.(check string)
    "defaults" "bfs.w32.O1.s1"
    (Runner.job_id (Runner.job "bfs"));
  Alcotest.(check string)
    "full" "pigz.w16.O3.s2.t8"
    (Runner.job_id
       (Runner.job ~warp_size:16 ~level:Threadfuser_compiler.Compiler.O3
          ~threads:8 ~scale:2 "pigz"))

let test_matrix () =
  let jobs =
    Runner.matrix ~workloads:[ "a"; "b" ] ~warp_sizes:[ 8; 32 ]
      ~levels:[ Threadfuser_compiler.Compiler.O0 ]
      ()
  in
  Alcotest.(check (list string))
    "workload-major order"
    [ "a.w8.O0.s1"; "a.w32.O0.s1"; "b.w8.O0.s1"; "b.w32.O0.s1" ]
    (List.map Runner.job_id jobs)

(* ------------------------------------------------------------------ *)
(* The happy path                                                      *)

let test_happy () =
  let dir = fresh_dir () in
  let m =
    Runner.run
      ~config:(config dir)
      (List.map Runner.job small)
  in
  Alcotest.(check int) "all jobs accounted" 3 (List.length m.Runner.entries);
  Alcotest.(check bool) "all ok" true (Runner.all_ok m);
  List.iter
    (fun (e : Runner.entry) ->
      Alcotest.(check int) "single attempt" 1 e.Runner.attempts;
      match e.Runner.report_file with
      | None -> Alcotest.fail "success without report"
      | Some rel ->
          let j =
            match Json.parse (read_file (Filename.concat dir rel)) with
            | Ok j -> j
            | Error m -> Alcotest.fail m
          in
          (match Threadfuser_report.Report_json.validate j with
          | Ok () -> ()
          | Error m -> Alcotest.fail m))
    m.Runner.entries;
  (* the manifest file exists and matches *)
  (match Json.parse (read_file (Runner.manifest_path dir)) with
  | Error m -> Alcotest.fail m
  | Ok j ->
      Alcotest.(check (option int))
        "manifest job count" (Some 3)
        (Option.bind (Json.member "jobs" j) Json.to_int_opt));
  (* dedup: the same job twice runs once *)
  let m2 =
    Runner.run
      ~config:(config (fresh_dir ()))
      [ Runner.job "bfs"; Runner.job "bfs" ]
  in
  Alcotest.(check int) "duplicates dropped" 1 (List.length m2.Runner.entries)

(* ------------------------------------------------------------------ *)
(* Faults: crash, retry, give-up, stall/deadline                        *)

(* 100% crash on attempt 1 only: every job fails once, retries, recovers.
   Also exercises the Obs integration: the retries counter and the suite
   track must record the recovery. *)
let test_crash_then_recover () =
  let dir = fresh_dir () in
  let chaos =
    Exec_fault.plan ~crash_pct:100 ~first_attempt_only:true ~retries:1 ()
  in
  let retries_ctr = Obs.Counter.make "tf_suite_retries" in
  Obs.reset ();
  Obs.set_enabled true;
  let m =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled false)
      (fun () ->
        Runner.run ~config:(config ~chaos dir) (List.map Runner.job small))
  in
  Alcotest.(check bool) "recovered" true (Runner.all_ok m);
  List.iter
    (fun (e : Runner.entry) ->
      Alcotest.(check int) "two attempts" 2 e.Runner.attempts)
    m.Runner.entries;
  Alcotest.(check int) "retries counted" 3 (Obs.Counter.value retries_ctr);
  let snap = Obs.snapshot () in
  let suite_events =
    List.filter
      (function
        | Obs.Complete { track; _ } | Obs.Instant { track; _ } ->
            List.assoc_opt track snap.Obs.tracks = Some "suite")
      snap.Obs.events
  in
  Alcotest.(check bool) "suite track has events" true (suite_events <> []);
  Obs.reset ()

let test_gave_up () =
  let dir = fresh_dir () in
  let chaos =
    Exec_fault.plan ~crash_pct:100 ~first_attempt_only:false ~retries:2 ()
  in
  let m =
    Runner.run
      ~config:(config ~chaos dir)
      [ Runner.job "vectoradd" ]
  in
  match m.Runner.entries with
  | [ e ] ->
      (match e.Runner.outcome with
      | Runner.Outcome.Gave_up msg ->
          Alcotest.(check bool)
            "detail names the last failure" true
            (String.length msg > 0)
      | o -> Alcotest.fail ("expected gave-up, got " ^ Runner.Outcome.name o));
      Alcotest.(check int) "budget exhausted" 3 e.Runner.attempts;
      Alcotest.(check int) "nothing else in manifest" 1
        (List.length m.Runner.entries);
      Alcotest.(check (list string)) "failures lists it" [ e.Runner.id ]
        (List.map (fun e -> e.Runner.id) (Runner.failures m))
  | _ -> Alcotest.fail "expected exactly one entry"

(* A first-attempt crash with no retry budget keeps its own kind. *)
let test_crashed_kind () =
  let dir = fresh_dir () in
  let chaos = Exec_fault.plan ~crash_pct:100 () in
  let m =
    Runner.run ~config:(config ~chaos dir) [ Runner.job "bfs" ]
  in
  Alcotest.(check (list string)) "crashed" [ "crashed" ] (outcome_names m)

(* A terminal failure dumps the job's flight recorder: the entry points
   at [flight/<id>.trace.json], the trace re-parses with the supervisor's
   lifecycle notes in it, and a metrics snapshot sits beside it.
   Successful jobs dump nothing. *)
let test_flight_dump_on_terminal_failure () =
  let dir = fresh_dir () in
  let chaos =
    Exec_fault.plan ~crash_pct:100 ~first_attempt_only:false
      ~only_prefix:"bfs" ~retries:1 ()
  in
  let m =
    Runner.run
      ~config:(config ~chaos dir)
      [ Runner.job "bfs"; Runner.job "vectoradd" ]
  in
  let entry id =
    List.find (fun (e : Runner.entry) -> e.Runner.id = id) m.Runner.entries
  in
  let failed = entry "bfs.w32.O1.s1" and ok = entry "vectoradd.w32.O1.s1" in
  Alcotest.(check string) "bfs gave up" "gave-up"
    (Runner.Outcome.name failed.Runner.outcome);
  Alcotest.(check (option string))
    "success has no flight dump" None ok.Runner.flight_file;
  match failed.Runner.flight_file with
  | None -> Alcotest.fail "terminal failure without a flight dump"
  | Some rel ->
      Alcotest.(check string)
        "dump path is flight/<id>.trace.json" "flight/bfs.w32.O1.s1.trace.json"
        rel;
      let trace_path = Filename.concat dir rel in
      Alcotest.(check bool) "trace exists" true (Sys.file_exists trace_path);
      let j =
        match Json.parse (read_file trace_path) with
        | Ok j -> j
        | Error m -> Alcotest.failf "trace unparsable: %s" m
      in
      let evs =
        match Json.member "traceEvents" j with
        | Some (Json.List evs) -> evs
        | _ -> Alcotest.fail "traceEvents missing or not a list"
      in
      Alcotest.(check bool) "trace has events" true (evs <> []);
      let names =
        List.filter_map
          (fun e -> Option.bind (Json.member "name" e) Json.to_string_opt)
          evs
      in
      List.iter
        (fun expect ->
          Alcotest.(check bool) ("note present: " ^ expect) true
            (List.mem expect names))
        [ "attempt spawned"; "attempt failed"; "job failed terminally" ];
      let metrics_path =
        Filename.concat dir
          (Filename.chop_suffix rel ".trace.json" ^ ".metrics.txt")
      in
      Alcotest.(check bool) "metrics snapshot beside the trace" true
        (Sys.file_exists metrics_path);
      (* the manifest's entry carries the same relative path *)
      let mj =
        match Json.parse (read_file (Runner.manifest_path dir)) with
        | Ok j -> j
        | Error m -> Alcotest.fail m
      in
      let entries =
        match Json.member "entries" mj with
        | Some (Json.List es) -> es
        | _ -> Alcotest.fail "manifest entries missing"
      in
      Alcotest.(check bool) "manifest references the dump" true
        (List.exists
           (fun e -> Json.member "flight" e = Some (Json.String rel))
           entries)

(* Fleet rollups: the manifest embeds a per-suite aggregate whose counts
   and duration percentiles are consistent with the entries. *)
let test_manifest_rollup () =
  let dir = fresh_dir () in
  let m = Runner.run ~config:(config dir) (List.map Runner.job small) in
  Alcotest.(check bool) "suite ok" true (Runner.all_ok m);
  let r = Runner.rollup_json m in
  let mem k v =
    match Json.member k v with
    | Some x -> x
    | None -> Alcotest.failf "rollup missing %S" k
  in
  let jint k v =
    match Json.to_int_opt (mem k v) with
    | Some n -> n
    | None -> Alcotest.failf "rollup %s not an int" k
  in
  let jfloat k v =
    match Json.to_float_opt (mem k v) with
    | Some f -> f
    | None -> Alcotest.failf "rollup %s not a number" k
  in
  Alcotest.(check int) "jobs" 3 (jint "jobs" r);
  Alcotest.(check int) "attempts" 3 (jint "attempts_total" r);
  Alcotest.(check bool) "throughput positive" true (jfloat "jobs_per_s" r > 0.);
  let d = mem "duration_s" r in
  let p50 = jfloat "p50" d and p95 = jfloat "p95" d and mx = jfloat "max" d in
  Alcotest.(check bool) "percentiles ordered" true (p50 <= p95 && p95 <= mx);
  Alcotest.(check bool) "max matches slowest entry" true
    (List.exists
       (fun (e : Runner.entry) -> abs_float (e.Runner.duration_s -. mx) < 1e-9)
       m.Runner.entries);
  (* the manifest file embeds the same rollup *)
  (match Json.parse (read_file (Runner.manifest_path dir)) with
  | Error m -> Alcotest.fail m
  | Ok j ->
      Alcotest.(check bool) "manifest has rollup" true
        (Json.member "rollup" j <> None));
  (* empty-duration guard: an interrupted manifest with no entries still
     rolls up without raising *)
  let empty =
    {
      Runner.entries = [];
      quarantined = 0;
      wall_s = 0.;
      interrupted = true;
      cache_hits = 0;
      cache_misses = 0;
    }
  in
  match Runner.rollup_json empty with
  | Json.Obj _ -> ()
  | _ -> Alcotest.fail "empty rollup not an object"

let test_stall_deadline_timeout () =
  let dir = fresh_dir () in
  let chaos = Exec_fault.plan ~stall_pct:100 ~stall_s:10. () in
  let t0 = Unix.gettimeofday () in
  let m =
    Runner.run
      ~config:(config ~deadline_s:0.3 ~chaos dir)
      [ Runner.job "vectoradd" ]
  in
  Alcotest.(check (list string)) "timed out" [ "timeout" ] (outcome_names m);
  Alcotest.(check bool)
    "SIGKILL preempted the 10s stall" true
    (Unix.gettimeofday () -. t0 < 5.)

(* ------------------------------------------------------------------ *)
(* Journal: corruption quarantine and resume                            *)

let test_resume_skips_and_quarantines () =
  let dir = fresh_dir () in
  let jobs = List.map Runner.job small in
  let m1 = Runner.run ~config:(config dir) jobs in
  Alcotest.(check bool) "first pass ok" true (Runner.all_ok m1);
  (* sabotage: a torn line, foreign JSON, and one success whose report
     artifact disappears — all must quarantine, none may be fatal *)
  let oc = open_out_gen [ Open_append ] 0o644 (Journal.path dir) in
  output_string oc "{\"schema\":\"tfsuite-job/1\",\"id\":\"torn";
  output_string oc "\n{\"note\":\"not a job record\"}\n";
  close_out oc;
  Sys.remove (Filename.concat dir "reports/bfs.w32.O1.s1.json");
  let m2 = Runner.run ~config:(config ~resume:true dir) jobs in
  Alcotest.(check bool) "second pass ok" true (Runner.all_ok m2);
  Alcotest.(check int)
    "torn line + foreign record + invalidated success" 3 m2.Runner.quarantined;
  let by_source s =
    List.filter (fun e -> e.Runner.source = s) m2.Runner.entries
  in
  Alcotest.(check int) "two skipped" 2 (List.length (by_source Runner.Resumed));
  Alcotest.(check (list string))
    "only the invalidated job re-ran" [ "bfs.w32.O1.s1" ]
    (List.map (fun e -> e.Runner.id) (by_source Runner.Fresh));
  Alcotest.(check bool)
    "quarantine file exists" true
    (Sys.file_exists (Journal.quarantine_path dir))

(* Kill the supervisor itself mid-suite (the journal's reason to exist):
   run it in a forked child, SIGKILL it once the journal shows progress,
   then resume in-process and check only incomplete jobs re-ran. *)
let test_sigkill_resume () =
  let dir = fresh_dir () in
  (* a 100%-stall plan makes every first attempt take ~0.2 s, giving the
     parent a window where some jobs are journalled and some are not *)
  let chaos =
    Exec_fault.plan ~stall_pct:100 ~stall_s:0.2 ~first_attempt_only:true ()
  in
  let jobs =
    List.map Runner.job [ "vectoradd"; "bfs"; "uncoalesced"; "rotate"; "user" ]
  in
  flush stdout;
  flush stderr;
  let child =
    match Unix.fork () with
    | 0 ->
        (try
           ignore
             (Runner.run ~config:(config ~parallelism:1 ~chaos dir) jobs)
         with _ -> ());
        Unix._exit 0
    | pid -> pid
  in
  let journal_lines () =
    if Sys.file_exists (Journal.path dir) then
      String.split_on_char '\n' (read_file (Journal.path dir))
      |> List.filter (fun l -> String.trim l <> "")
      |> List.length
    else 0
  in
  let deadline = Unix.gettimeofday () +. 30. in
  while journal_lines () < 2 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  let seen = journal_lines () in
  Alcotest.(check bool) "made progress before the kill" true (seen >= 2);
  Unix.kill child Sys.sigkill;
  ignore (Unix.waitpid [] child);
  let m = Runner.run ~config:(config ~resume:true dir) jobs in
  Alcotest.(check bool) "resume completed the suite" true (Runner.all_ok m);
  Alcotest.(check int) "all jobs accounted" 5 (List.length m.Runner.entries);
  let resumed =
    List.filter (fun e -> e.Runner.source = Runner.Resumed) m.Runner.entries
  in
  Alcotest.(check bool)
    "journalled jobs were skipped, incomplete jobs re-ran" true
    (List.length resumed >= 2 && List.length resumed < 5)

(* The journal's durability contract is "every line is whole or torn,
   never silently wrong": [Journal.append] is one write + fsync.  Emulate
   a crash at EVERY byte offset inside the final record and check the
   loader's accounting at each cut — valid prefix records always survive,
   the torn tail is quarantined (or, cut exactly before the newline, still
   parses), and nothing raises. *)
let test_journal_crash_at_any_byte () =
  let dir = fresh_dir () in
  let jobs = List.map Runner.job small in
  let m = Runner.run ~config:(config ~parallelism:1 dir) jobs in
  Alcotest.(check bool) "seed suite ok" true (Runner.all_ok m);
  let full = read_file (Journal.path dir) in
  let len = String.length full in
  Alcotest.(check bool) "journal ends in newline" true (full.[len - 1] = '\n');
  (* start of the last record's line *)
  let boundary = 1 + String.rindex_from full (len - 2) '\n' in
  for cut = boundary to len - 1 do
    let oc = open_out_bin (Journal.path dir) in
    output_string oc (String.sub full 0 cut);
    close_out oc;
    let l = Journal.load dir in
    let records = Hashtbl.length l.Journal.records in
    let expected_lines = if cut > boundary then 3 else 2 in
    Alcotest.(check bool)
      (Printf.sprintf "cut %d: prefix records survive" cut)
      true (records >= 2);
    Alcotest.(check int)
      (Printf.sprintf "cut %d: every line valid or quarantined" cut)
      expected_lines
      (records + l.Journal.quarantined)
  done;
  (* one representative torn cut, driven through a real resume: the torn
     job re-runs fresh, the intact two are skipped *)
  let cut = boundary + ((len - boundary) / 2) in
  let oc = open_out_bin (Journal.path dir) in
  output_string oc (String.sub full 0 cut);
  close_out oc;
  let m2 = Runner.run ~config:(config ~parallelism:1 ~resume:true dir) jobs in
  Alcotest.(check bool) "resume after torn tail ok" true (Runner.all_ok m2);
  Alcotest.(check int) "torn line quarantined" 1 m2.Runner.quarantined;
  let by_source s =
    List.filter (fun e -> e.Runner.source = s) m2.Runner.entries
  in
  Alcotest.(check int) "intact records skipped" 2
    (List.length (by_source Runner.Resumed));
  Alcotest.(check int) "torn job re-ran" 1
    (List.length (by_source Runner.Fresh))

(* [Runner.request_stop] mid-run, called from a SIGALRM handler exactly
   as the CLI's SIGINT handler calls it: the supervisor kills and reaps
   the in-flight child, nothing new starts, the finished job stays
   journalled, the manifest says interrupted, and --resume completes
   exactly the dropped jobs.  Only bfs stalls, so vectoradd finishes and
   is journalled first; the handler polls the journal and stops the run
   (and its own timer) once that line lands, during bfs's 30 s stall. *)
let test_interrupt_resume () =
  let dir = fresh_dir () in
  let jobs = List.map Runner.job small in
  let chaos =
    Exec_fault.plan ~stall_pct:100 ~stall_s:30. ~only_prefix:"bfs" ()
  in
  let timer v =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL
         { Unix.it_interval = v; it_value = v })
  in
  let on_alarm _ =
    if
      Sys.file_exists (Journal.path dir)
      && String.contains (read_file (Journal.path dir)) '\n'
    then begin
      timer 0.;
      Runner.request_stop ()
    end
  in
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle on_alarm) in
  let t0 = Unix.gettimeofday () in
  let m1 =
    Fun.protect
      ~finally:(fun () ->
        timer 0.;
        Sys.set_signal Sys.sigalrm previous)
      (fun () ->
        timer 0.02;
        Runner.run ~config:(config ~parallelism:1 ~chaos dir) jobs)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "manifest says interrupted" true m1.Runner.interrupted;
  Alcotest.(check bool) "interrupted run is not all_ok" false
    (Runner.all_ok m1);
  Alcotest.(check (list string))
    "only the finished job has an entry" [ "vectoradd.w32.O1.s1" ]
    (List.map (fun e -> e.Runner.id) m1.Runner.entries);
  Alcotest.(check bool)
    (Printf.sprintf "stalled child killed, not waited out (%.2f s)" elapsed)
    true (elapsed < 15.);
  Alcotest.(check (list string))
    "killed attempt's files cleaned up" []
    (Array.to_list (Sys.readdir (Filename.concat dir "tmp")));
  (* [run] resets the stop flag on entry, so the same process can resume *)
  let m2 =
    Runner.run ~config:(config ~parallelism:1 ~resume:true dir) jobs
  in
  Alcotest.(check bool) "resume completed the suite" true (Runner.all_ok m2);
  Alcotest.(check int) "all jobs accounted" 3 (List.length m2.Runner.entries);
  Alcotest.(check (list string))
    "journalled work was not repeated" [ "vectoradd.w32.O1.s1" ]
    (List.filter_map
       (fun e ->
         if e.Runner.source = Runner.Resumed then Some e.Runner.id else None)
       m2.Runner.entries)

(* ------------------------------------------------------------------ *)
(* Determinism under parallelism                                        *)

let test_parallel_determinism () =
  let jobs = List.map Runner.job small in
  let d1 = fresh_dir () and d4 = fresh_dir () in
  let m1 = Runner.run ~config:(config ~parallelism:1 d1) jobs in
  let m4 = Runner.run ~config:(config ~parallelism:4 d4) jobs in
  Alcotest.(check bool) "both ok" true (Runner.all_ok m1 && Runner.all_ok m4);
  List.iter
    (fun (e : Runner.entry) ->
      let rel = Option.get e.Runner.report_file in
      Alcotest.(check string)
        (Printf.sprintf "%s report identical at -j1 and -j4" e.Runner.id)
        (read_file (Filename.concat d1 rel))
        (read_file (Filename.concat d4 rel)))
    m1.Runner.entries

(* ------------------------------------------------------------------ *)
(* Backoff and execution-fault determinism                              *)

let test_backoff () =
  let d1 = Backoff.delay_s ~base:0.1 ~seed:42 ~attempt:1 in
  let d1' = Backoff.delay_s ~base:0.1 ~seed:42 ~attempt:1 in
  Alcotest.(check (float 0.)) "deterministic" d1 d1';
  Alcotest.(check bool) "jitter stays in [0.5x, 1.5x]" true
    (d1 >= 0.05 && d1 <= 0.15);
  let huge = Backoff.delay_s ~base:5. ~seed:1 ~attempt:20 in
  Alcotest.(check bool) "capped" true (huge <= Backoff.max_delay_s);
  Alcotest.check_raises "attempt is 1-based"
    (Invalid_argument "Backoff.delay_s: attempt is 1-based") (fun () ->
      ignore (Backoff.delay_s ~base:0.1 ~seed:1 ~attempt:0))

let test_exec_fault_determinism () =
  let p = Exec_fault.plan ~seed:9 ~crash_pct:50 ~stall_pct:25 () in
  for attempt = 1 to 1 do
    List.iter
      (fun job ->
        Alcotest.(check string)
          "same triple, same action"
          (Exec_fault.action_name (Exec_fault.decide p ~job ~attempt))
          (Exec_fault.action_name (Exec_fault.decide p ~job ~attempt)))
      [ "a.w32.O1.s1"; "b.w32.O1.s1"; "c.w32.O1.s1" ]
  done;
  (* first_attempt_only really does shield retries *)
  let always = Exec_fault.plan ~crash_pct:100 ~first_attempt_only:true () in
  Alcotest.(check string)
    "attempt 1 eligible" "crash"
    (Exec_fault.action_name (Exec_fault.decide always ~job:"x" ~attempt:1));
  Alcotest.(check string)
    "attempt 2 shielded" "none"
    (Exec_fault.action_name (Exec_fault.decide always ~job:"x" ~attempt:2));
  (* prefix scoping *)
  let scoped =
    Exec_fault.plan ~crash_pct:100 ~only_prefix:"bfs" ()
  in
  Alcotest.(check string)
    "prefix match" "crash"
    (Exec_fault.action_name
       (Exec_fault.decide scoped ~job:"bfs.w32.O1.s1" ~attempt:1));
  Alcotest.(check string)
    "prefix miss" "none"
    (Exec_fault.action_name
       (Exec_fault.decide scoped ~job:"pigz.w32.O1.s1" ~attempt:1))

(* A deadline has to be a real budget: NaN used to switch it off, and a
   non-positive one timed out every attempt. *)
let test_bad_deadline () =
  List.iter
    (fun d ->
      Alcotest.check_raises (Printf.sprintf "deadline %g" d)
        (Invalid_argument "Runner.run: deadline must be finite and > 0")
        (fun () ->
          ignore
            (Runner.run
               ~config:(config ~deadline_s:d (fresh_dir ()))
               [ Runner.job "vectoradd" ])))
    [ nan; infinity; 0.; -1. ]

let () =
  Alcotest.run "runner"
    [
      ( "jobs",
        [
          Alcotest.test_case "job_id" `Quick test_job_id;
          Alcotest.test_case "matrix" `Quick test_matrix;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "fork happy path" `Quick test_happy;
          Alcotest.test_case "crash then recover" `Quick
            test_crash_then_recover;
          Alcotest.test_case "gave up" `Quick test_gave_up;
          Alcotest.test_case "crashed kind" `Quick test_crashed_kind;
          Alcotest.test_case "stall hits deadline" `Quick
            test_stall_deadline_timeout;
          Alcotest.test_case "flight dump on terminal failure" `Quick
            test_flight_dump_on_terminal_failure;
          Alcotest.test_case "manifest rollup" `Quick test_manifest_rollup;
          Alcotest.test_case "deadline must be finite and positive" `Quick
            test_bad_deadline;
        ] );
      ( "journal",
        [
          Alcotest.test_case "resume skips, corruption quarantined" `Quick
            test_resume_skips_and_quarantines;
          Alcotest.test_case "SIGKILL'd supervisor resumes" `Quick
            test_sigkill_resume;
          Alcotest.test_case "crash at any byte of the last record" `Quick
            test_journal_crash_at_any_byte;
          Alcotest.test_case "request_stop then resume" `Quick
            test_interrupt_resume;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "reports identical under parallelism" `Quick
            test_parallel_determinism;
          Alcotest.test_case "backoff" `Quick test_backoff;
          Alcotest.test_case "exec faults replay" `Quick
            test_exec_fault_determinism;
        ] );
    ]
