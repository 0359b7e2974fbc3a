(* The serve daemon end-to-end: streamed reports byte-identical to batch,
   busy shedding, typed replies for corrupt / cut / stalled sessions with
   the daemon surviving every one of them, and a clean drain. *)

module W = Threadfuser_workloads.Workload
module Registry = Threadfuser_workloads.Registry
module Analyzer = Threadfuser.Analyzer
module Pack = Threadfuser_trace.Pack
module Serve = Threadfuser_serve.Serve
module Client = Threadfuser_serve.Client
module Protocol = Threadfuser_serve.Protocol
module Exec_fault = Threadfuser_fault.Exec_fault
module Report_json = Threadfuser_report.Report_json
module Json = Threadfuser_report.Json
module Log = Threadfuser_obs.Log

let () = Log.set_quiet ()

let fixture =
  lazy
    (let w = Registry.find "bfs" in
     let t = W.trace_cpu ~threads:64 w in
     let prog = t.W.prog in
     (prog, t.W.traces))

let sock_ctr = ref 0

let fresh_socket () =
  incr sock_ctr;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "tf-serve-%d-%d.sock" (Unix.getpid ()) !sock_ctr)

(* Run [f] against a live daemon; always drain it afterwards. *)
let with_daemon ?(max_sessions = 4) ?(workers = 2) ?deadline_s ?fault
    ?flight_dir ?(quota = Analyzer.Session.default_budget) f =
  let prog, _ = Lazy.force fixture in
  let socket_path = fresh_socket () in
  let stop = Atomic.make false in
  let ready_m = Mutex.create () in
  let ready_c = Condition.create () in
  let ready = ref false in
  let cfg =
    {
      (Serve.default_config ~prog ~socket_path) with
      Serve.max_sessions;
      workers;
      deadline_s;
      fault;
      flight_dir;
      session_quota = quota;
    }
  in
  let daemon =
    Domain.spawn (fun () ->
        Serve.run ~stop
          ~on_ready:(fun () ->
            Mutex.lock ready_m;
            ready := true;
            Condition.signal ready_c;
            Mutex.unlock ready_m)
          cfg)
  in
  Mutex.lock ready_m;
  while not !ready do
    Condition.wait ready_c ready_m
  done;
  Mutex.unlock ready_m;
  let fin () =
    Atomic.set stop true;
    Domain.join daemon
  in
  match f socket_path with
  | r ->
      let stats = fin () in
      (r, stats)
  | exception e ->
      ignore (fin ());
      raise e

let batch_json () =
  let prog, traces = Lazy.force fixture in
  let checked = Analyzer.analyze_checked prog traces in
  Report_json.to_string checked.Analyzer.result.Analyzer.report

(* Concurrent sessions, awkward chunk sizes: every report byte-identical
   to the batch pipeline's. *)
let test_byte_identity () =
  let _, traces = Lazy.force fixture in
  let expect = batch_json () in
  let (), stats =
    with_daemon (fun socket_path ->
        let clients =
          List.map
            (fun chunk_bytes ->
              Domain.spawn (fun () ->
                  Client.session ~chunk_bytes ~socket_path
                    (Pack.encode traces)))
            [ 7; 1024; 65536 ]
        in
        List.iter
          (fun d ->
            let o = Domain.join d in
            Alcotest.(check string)
              "status" "ok"
              (Protocol.status_name o.Client.reply.Protocol.status);
            Alcotest.(check int) "threads" (Array.length traces)
              o.Client.reply.Protocol.threads;
            match o.Client.report with
            | None -> Alcotest.fail "ok reply without a report frame"
            | Some r ->
                Alcotest.(check bool) "report byte-identical to batch" true
                  (String.equal expect r))
          clients)
  in
  Alcotest.(check int) "served" 3 stats.Serve.served;
  Alcotest.(check int) "none failed" 0 stats.Serve.failed

(* A raw connection that reads the greeting and then squats on its slot. *)
let squat socket_path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  (match Protocol.reply_of_json (Protocol.read_frame fd) with
  | Ok r ->
      Alcotest.(check string) "squatter greeted ready" "ready"
        (Protocol.status_name r.Protocol.status)
  | Error m -> Alcotest.failf "squatter greeting: %s" m);
  fd

let test_busy_shed () =
  let _, traces = Lazy.force fixture in
  let (), stats =
    with_daemon ~max_sessions:1 (fun socket_path ->
        let holder = squat socket_path in
        let o = Client.session ~socket_path (Pack.encode traces) in
        Alcotest.(check string) "second session shed" "busy"
          (Protocol.status_name o.Client.reply.Protocol.status);
        Alcotest.(check bool) "busy says why" true
          (o.Client.reply.Protocol.message <> None);
        Alcotest.(check bool) "no report rides a busy reply" true
          (o.Client.report = None);
        (* free the slot: the daemon answers the squatter's empty close
           and the next client is served again.  Finishing the squatter
           takes the daemon a beat, so retry busy greetings briefly. *)
        Unix.close holder;
        let rec retry n =
          let o2 = Client.session ~socket_path (Pack.encode traces) in
          match o2.Client.reply.Protocol.status with
          | Protocol.Busy when n > 0 ->
              Unix.sleepf 0.05;
              retry (n - 1)
          | s -> Alcotest.(check string) "slot freed" "ok" (Protocol.status_name s)
        in
        retry 100)
  in
  Alcotest.(check bool) "sheds counted" true (stats.Serve.shed >= 1)

(* Corrupt bytes, a cut connection, a hostile oversized frame: each gets a
   typed reply, and a clean session afterwards still gets a full report. *)
let test_poison_isolation () =
  let _, traces = Lazy.force fixture in
  let stream = Pack.encode traces in
  let expect = batch_json () in
  let (), stats =
    with_daemon (fun socket_path ->
        (* corrupt mid-stream *)
        let o =
          Client.session ~socket_path
            (String.sub stream 0 (String.length stream / 2)
            ^ String.make 16 '\xff')
        in
        Alcotest.(check string) "corrupt -> error" "error"
          (Protocol.status_name o.Client.reply.Protocol.status);
        Alcotest.(check (option string))
          "typed kind" (Some "corrupt-input") o.Client.reply.Protocol.kind;
        (* cut mid-stream: connect, send half, vanish *)
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket_path);
        ignore (Protocol.read_frame fd);
        Protocol.write_all fd (String.sub stream 0 (String.length stream / 3));
        Unix.close fd;
        (* the daemon still serves *)
        let o2 = Client.session ~socket_path (Pack.encode traces) in
        Alcotest.(check string) "daemon survives poison" "ok"
          (Protocol.status_name o2.Client.reply.Protocol.status);
        Alcotest.(check bool) "clean report still byte-identical" true
          (o2.Client.report = Some expect))
  in
  Alcotest.(check bool) "failures counted" true (stats.Serve.failed >= 1);
  Alcotest.(check int) "only the clean session served" 1 stats.Serve.served

(* One flipped bit in a block's payload fails that block's CRC: the
   session gets a typed [corrupt-input] error, never a report over
   different traces, and the daemon keeps serving. *)
let test_flipped_bit () =
  let _, traces = Lazy.force fixture in
  let stream = Pack.encode traces in
  let r = Pack.reader ~pos:(String.length Pack.magic) stream in
  ignore (Pack.read_uint r);
  (* the first block: tid, payload length, payload *)
  ignore (Pack.read_uint r);
  let payload_len = Pack.read_uint r in
  let b = Bytes.of_string stream in
  let at = r.Pack.pos + (payload_len / 2) in
  Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x04));
  let expect = batch_json () in
  let (), stats =
    with_daemon (fun socket_path ->
        let o = Client.session ~socket_path (Bytes.to_string b) in
        Alcotest.(check string) "flipped bit -> error" "error"
          (Protocol.status_name o.Client.reply.Protocol.status);
        Alcotest.(check (option string))
          "typed kind" (Some "corrupt-input") o.Client.reply.Protocol.kind;
        Alcotest.(check bool) "the CRC caught it" true
          (match o.Client.reply.Protocol.message with
          | Some m -> String.starts_with ~prefix:"pack block crc mismatch" m
          | None -> false);
        let o2 = Client.session ~socket_path stream in
        Alcotest.(check bool) "daemon still serves" true
          (o2.Client.report = Some expect))
  in
  Alcotest.(check int) "one failed" 1 stats.Serve.failed;
  Alcotest.(check int) "one served" 1 stats.Serve.served

let test_deadline_timeout () =
  let _, traces = Lazy.force fixture in
  let stream = Pack.encode traces in
  let (), stats =
    with_daemon ~deadline_s:0.3 (fun socket_path ->
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            Unix.connect fd (Unix.ADDR_UNIX socket_path);
            ignore (Protocol.read_frame fd);
            (* send most of the stream, then stall past the deadline *)
            Protocol.write_all fd
              (String.sub stream 0 (String.length stream / 2));
            match Protocol.reply_of_json (Protocol.read_frame fd) with
            | Error m -> Alcotest.failf "timeout reply: %s" m
            | Ok r ->
                Alcotest.(check string) "stalled session times out" "timeout"
                  (Protocol.status_name r.Protocol.status);
                Alcotest.(check (option string))
                  "typed kind" (Some "timeout") r.Protocol.kind;
                Alcotest.(check bool) "partial report follows" true
                  r.Protocol.has_report;
                let report = Protocol.read_frame fd in
                Alcotest.(check bool) "prefix report non-empty" true
                  (String.length report > 2)))
  in
  Alcotest.(check int) "timeout counted failed" 1 stats.Serve.failed

(* Deterministic chaos: with --fault disconnect=100, every session is
   cut and answered with a typed error; the daemon drains cleanly. *)
let test_injected_faults () =
  let _, traces = Lazy.force fixture in
  let fault =
    Exec_fault.session_plan ~seed:11 ~disconnect_pct:100
      ~disconnect_after:2048 ()
  in
  let outcomes, stats =
    with_daemon ~fault (fun socket_path ->
        List.init 3 (fun _ ->
            Client.session ~socket_path (Pack.encode traces)))
  in
  List.iter
    (fun o ->
      Alcotest.(check string) "injected cut -> error" "error"
        (Protocol.status_name o.Client.reply.Protocol.status))
    outcomes;
  Alcotest.(check int) "all sessions failed" 3 stats.Serve.failed;
  (* same seed, same ordinals: the plan is reproducible *)
  List.iteri
    (fun i _ ->
      match Exec_fault.decide_session fault ~session:i with
      | Exec_fault.Disconnect _ -> ()
      | a ->
          Alcotest.failf "session %d decided %s, expected disconnect" i
            (Exec_fault.session_action_name a))
    outcomes

(* A daemon that cuts a session replies and closes while the client is
   still streaming: the client's send fails with EPIPE, yet the typed
   reply already in its receive buffer is what it returns. *)
let test_reply_after_early_close () =
  let _, traces = Lazy.force fixture in
  let fault =
    Exec_fault.session_plan ~disconnect_pct:100 ~disconnect_after:2048 ()
  in
  (* far more than the socket buffers hold, so the send is cut *)
  let stream = Pack.encode traces ^ String.make (1 lsl 20) '\x00' in
  let o, _ = with_daemon ~fault (fun socket_path -> Client.session ~socket_path stream) in
  Alcotest.(check string) "typed reply, not EPIPE" "error"
    (Protocol.status_name o.Client.reply.Protocol.status)

(* The admin surface, scraped mid-flight: a poisoned session and a live
   squatter, then a STATS scrape on the admin socket.  The JSON document
   is per-daemon state, so its counts are exact; the Prometheus text
   comes from the process-global collector, so we only assert family
   presence and the always-emitted lines there. *)
let test_admin_stats_scrape () =
  let (), _stats =
    with_daemon (fun socket_path ->
        (* a poisoned session: counted failed, then closed *)
        let o = Client.session ~socket_path (String.make 64 '\xff') in
        Alcotest.(check string) "poison -> error" "error"
          (Protocol.status_name o.Client.reply.Protocol.status);
        (* a squatter holding its slot: visible as an active session *)
        let holder = squat socket_path in
        Fun.protect
          ~finally:(fun () -> Unix.close holder)
          (fun () ->
            let body = Client.stats ~socket_path () in
            let j =
              match Json.parse body with
              | Ok j -> j
              | Error m -> Alcotest.failf "stats json unparsable: %s" m
            in
            let mem k v =
              match Json.member k v with
              | Some x -> x
              | None -> Alcotest.failf "stats doc missing %S" k
            in
            Alcotest.(check (option string))
              "schema" (Some "tfserve-stats/1")
              (Json.to_string_opt (mem "schema" j));
            let d = mem "daemon" j in
            let dint k =
              match Json.to_int_opt (mem k d) with
              | Some n -> n
              | None -> Alcotest.failf "daemon.%s not an int" k
            in
            Alcotest.(check int) "failed counted" 1 (dint "failed");
            Alcotest.(check int) "nothing served yet" 0 (dint "served");
            Alcotest.(check bool) "squatter active" true (dint "active" >= 1);
            Alcotest.(check bool) "flight recorder off" true
              (mem "flight_recorder" d = Json.Bool false);
            (match mem "sessions" j with
            | Json.List ss ->
                Alcotest.(check bool) "squatter listed reading" true
                  (List.exists
                     (fun s ->
                       Json.member "state" s = Some (Json.String "reading"))
                     ss)
            | _ -> Alcotest.fail "sessions is not a list");
            (* Prometheus exposition from the same socket *)
            let prom =
              Client.stats ~format:Protocol.Stats_prom ~socket_path ()
            in
            let has needle =
              let nl = String.length needle and pl = String.length prom in
              let rec go i =
                i + nl <= pl && (String.sub prom i nl = needle || go (i + 1))
              in
              go 0
            in
            List.iter
              (fun family ->
                Alcotest.(check bool) ("prom has " ^ family) true (has family))
              [
                "tf_serve_sessions_total";
                "tf_serve_sessions_failed_total";
                "tf_serve_sessions_active";
                "tf_serve_admin_scrapes_total";
                "tf_build_info{";
                "tf_uptime_seconds";
                "tf_obs_events_dropped_total";
              ];
            (* a garbage admin request gets a framed error, not a hang *)
            let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Fun.protect
              ~finally:(fun () ->
                try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                Unix.connect fd
                  (Unix.ADDR_UNIX (Serve.admin_path_of socket_path));
                Protocol.write_all fd "FLAMEGRAPH please\n";
                match Json.parse (Protocol.read_frame fd) with
                | Ok e ->
                    Alcotest.(check bool) "typed error reply" true
                      (Json.member "error" e <> None)
                | Error m -> Alcotest.failf "admin error unparsable: %s" m)))
  in
  ()

(* A poisoned session with the flight recorder on: the daemon dumps a
   Chrome-trace timeline plus a metrics snapshot, and the trace re-parses
   with a non-empty [traceEvents] list that includes worker-side spans. *)
let test_flight_dump_on_poison () =
  let flight_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tf-flight-%d-%d" (Unix.getpid ()) !sock_ctr)
  in
  let (), stats =
    with_daemon ~flight_dir (fun socket_path ->
        let o = Client.session ~socket_path (String.make 64 '\xff') in
        Alcotest.(check string) "poison -> error" "error"
          (Protocol.status_name o.Client.reply.Protocol.status))
  in
  Alcotest.(check int) "one failure" 1 stats.Serve.failed;
  let dumps =
    Sys.readdir flight_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".trace.json")
  in
  Alcotest.(check int) "exactly one trace dump" 1 (List.length dumps);
  let trace_file = Filename.concat flight_dir (List.hd dumps) in
  let read_all path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (match Json.parse (read_all trace_file) with
  | Error m -> Alcotest.failf "trace dump unparsable: %s" m
  | Ok j -> (
      match Json.member "traceEvents" j with
      | Some (Json.List evs) ->
          Alcotest.(check bool) "trace has events" true (List.length evs > 0);
          let names =
            List.filter_map
              (fun e ->
                Option.bind (Json.member "name" e) Json.to_string_opt)
              evs
          in
          Alcotest.(check bool) "loop-side accept note present" true
            (List.mem "accepted" names);
          Alcotest.(check bool) "terminal status note present" true
            (List.mem "session error" names)
      | _ -> Alcotest.fail "traceEvents missing or not a list"));
  let metrics_file =
    Filename.concat flight_dir
      (Filename.chop_suffix (List.hd dumps) ".trace.json" ^ ".metrics.txt")
  in
  Alcotest.(check bool) "metrics snapshot beside the trace" true
    (Sys.file_exists metrics_file);
  let metrics = read_all metrics_file in
  Alcotest.(check bool) "metrics snapshot is an exposition" true
    (String.length metrics > 0
    && String.sub metrics 0 6 = "# HELP")

(* A NaN deadline used to reach [Unix.select]'s timeout and kill the
   daemon at its first session; every bad deadline is refused before
   anything is bound.  [stop] is already set, so a daemon that wrongly
   starts drains at once instead of hanging the test. *)
let test_bad_deadline () =
  let prog, _ = Lazy.force fixture in
  List.iter
    (fun d ->
      let socket_path = fresh_socket () in
      let cfg =
        {
          (Serve.default_config ~prog ~socket_path) with
          Serve.deadline_s = Some d;
        }
      in
      Alcotest.check_raises (Printf.sprintf "deadline %g" d)
        (Invalid_argument "Serve.run: deadline must be finite and > 0")
        (fun () -> ignore (Serve.run ~stop:(Atomic.make true) cfg));
      Alcotest.(check bool) "nothing bound" false (Sys.file_exists socket_path))
    [ nan; infinity; 0.; -1. ]

let test_drain_idle () =
  let (), stats = with_daemon (fun _ -> ()) in
  Alcotest.(check int) "no sessions" 0
    (stats.Serve.served + stats.Serve.failed + stats.Serve.shed)

let () =
  Alcotest.run "serve"
    [
      ( "daemon",
        [
          Alcotest.test_case "byte identity, concurrent sessions" `Quick
            test_byte_identity;
          Alcotest.test_case "busy shed at max-sessions" `Quick test_busy_shed;
          Alcotest.test_case "poison isolation" `Quick test_poison_isolation;
          Alcotest.test_case "flipped payload bit" `Quick test_flipped_bit;
          Alcotest.test_case "deadline timeout" `Quick test_deadline_timeout;
          Alcotest.test_case "injected faults" `Quick test_injected_faults;
          Alcotest.test_case "admin stats scrape" `Quick
            test_admin_stats_scrape;
          Alcotest.test_case "flight dump on poison" `Quick
            test_flight_dump_on_poison;
          Alcotest.test_case "idle drain" `Quick test_drain_idle;
          Alcotest.test_case "reply survives an early close" `Quick
            test_reply_after_early_close;
          Alcotest.test_case "deadline must be finite and positive" `Quick
            test_bad_deadline;
        ] );
    ]
