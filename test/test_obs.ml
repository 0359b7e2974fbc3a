(* The observability stack: collector semantics (spans, counters,
   histograms, the disabled fast path), the Chrome-trace and Prometheus
   exporters, the structured logger, and the instrumentation the analysis
   pipeline emits end-to-end. *)

module Obs = Threadfuser_obs.Obs
module Log = Threadfuser_obs.Log
module Trace_export = Threadfuser_obs.Trace_export
module Prom = Threadfuser_obs.Prom
module Json = Threadfuser_report.Json
module Stats = Threadfuser_stats.Stats
module W = Threadfuser_workloads.Workload
module Registry = Threadfuser_workloads.Registry
module Analyzer = Threadfuser.Analyzer
module Metrics = Threadfuser.Metrics

(* A track of this test's own for the generic collector tests. *)
let test_track = Obs.track "test"

(* Every test leaves the collector disabled and empty for the next one;
   the registries deliberately survive [reset]. *)
let with_collector f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Collector                                                            *)

let test_counter_basics () =
  let c = Obs.Counter.make "tf_test_counter_basics" ~help:"test" in
  with_collector (fun () ->
      Obs.Counter.incr c;
      Obs.Counter.add c 41;
      Alcotest.(check int) "enabled counts" 42 (Obs.Counter.value c));
  (* after with_collector: reset zeroed it and the collector is off *)
  Alcotest.(check int) "reset zeroes" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Obs.Counter.add c 7;
  Alcotest.(check int) "disabled is a no-op" 0 (Obs.Counter.value c)

let test_counter_registry_idempotent () =
  let a = Obs.Counter.make "tf_test_counter_shared" in
  let b = Obs.Counter.make "tf_test_counter_shared" in
  with_collector (fun () ->
      Obs.Counter.incr a;
      Obs.Counter.incr b;
      Alcotest.(check int) "same underlying counter" 2 (Obs.Counter.value a))

let test_histogram_quantiles () =
  let h = Obs.Histogram.make "tf_test_histo_q" ~help:"test" in
  Alcotest.(check (float 0.0)) "empty quantile is 0" 0.0
    (Obs.Histogram.quantile h 0.5);
  with_collector (fun () ->
      let data = Array.init 100 (fun i -> float_of_int (i + 1)) in
      Array.iter (fun v -> Obs.Histogram.observe h v) data;
      Alcotest.(check int) "count" 100 (Obs.Histogram.count h);
      Alcotest.(check (float 1e-6)) "sum" 5050.0 (Obs.Histogram.sum h);
      (* quantiles agree with Stats.percentile over the same samples *)
      List.iter
        (fun q ->
          Alcotest.(check (float 1e-6))
            (Printf.sprintf "q=%.2f matches Stats.percentile" q)
            (Stats.percentile ~q data)
            (Obs.Histogram.quantile h q))
        [ 0.0; 0.5; 0.95; 0.99; 1.0 ])

let test_histogram_disabled () =
  let h = Obs.Histogram.make "tf_test_histo_off" in
  Obs.Histogram.observe h 3.0;
  Alcotest.(check int) "disabled observe is a no-op" 0 (Obs.Histogram.count h)

let test_span_nesting () =
  with_collector (fun () ->
      let v =
        Obs.span "outer"
          ~args:[ ("k", "v") ]
          (fun () ->
            Obs.span "inner" (fun () -> ());
            17)
      in
      Alcotest.(check int) "span returns the body's value" 17 v;
      let snap = Obs.snapshot () in
      let completes =
        List.filter_map
          (function
            | Obs.Complete { name; ts; dur; _ } -> Some (name, ts, dur)
            | Obs.Instant _ -> None)
          snap.Obs.events
      in
      Alcotest.(check int) "two complete events" 2 (List.length completes);
      let name_in, ts_in, dur_in = List.nth completes 0 in
      let name_out, ts_out, dur_out = List.nth completes 1 in
      (* chronological by start: outer starts first *)
      Alcotest.(check string) "outer first by start" "outer" name_out;
      Alcotest.(check string) "inner second" "inner" name_in;
      Alcotest.(check bool) "inner nests inside outer" true
        (ts_in >= ts_out && ts_in +. dur_in <= ts_out +. dur_out +. 1.0))

let test_span_exception_safe () =
  with_collector (fun () ->
      (try Obs.span "boom" (fun () -> failwith "x") with Failure _ -> ());
      let snap = Obs.snapshot () in
      Alcotest.(check int) "span recorded despite the raise" 1
        (List.length snap.Obs.events))

let test_span_disabled_records_nothing () =
  Obs.reset ();
  Obs.span "quiet" (fun () -> ());
  Obs.instant ~track:test_track "quiet instant";
  let snap = Obs.snapshot () in
  Alcotest.(check int) "no events when disabled" 0 (List.length snap.Obs.events)

let test_event_cap () =
  with_collector (fun () ->
      Obs.set_max_events 10;
      Fun.protect
        ~finally:(fun () -> Obs.set_max_events 500_000)
        (fun () ->
          for _ = 1 to 25 do
            Obs.instant ~track:test_track "e"
          done;
          let snap = Obs.snapshot () in
          Alcotest.(check int) "events capped" 10 (List.length snap.Obs.events);
          Alcotest.(check int) "drops counted" 15 snap.Obs.events_dropped))

(* ------------------------------------------------------------------ *)
(* Exporters                                                            *)

let member k = function
  | Json.Obj fields -> List.assoc_opt k fields
  | _ -> None

let test_chrome_export_well_formed () =
  let c = Obs.Counter.make "tf_test_export_counter" in
  with_collector (fun () ->
      Obs.Counter.incr c;
      Obs.span "phase_a" (fun () ->
          Obs.instant ~track:test_track "split"
            ~args:[ ("lanes", "4") ]);
      let s = Trace_export.to_string (Obs.snapshot ()) in
      match Json.parse s with
      | Error m -> Alcotest.failf "exporter emitted invalid JSON: %s" m
      | Ok doc -> (
          match member "traceEvents" doc with
          | Some (Json.List events) ->
              let names =
                List.filter_map
                  (fun e ->
                    match member "name" e with
                    | Some (Json.String n) -> Some n
                    | _ -> None)
                  events
              in
              List.iter
                (fun expected ->
                  Alcotest.(check bool)
                    (expected ^ " present") true
                    (List.mem expected names))
                [ "process_name"; "thread_name"; "phase_a"; "split" ];
              (* the instant carries its args and the instant phase *)
              let split =
                List.find
                  (fun e -> member "name" e = Some (Json.String "split"))
                  events
              in
              Alcotest.(check bool) "instant phase" true
                (member "ph" split = Some (Json.String "i"));
              (match member "args" split with
              | Some (Json.Obj args) ->
                  Alcotest.(check bool) "instant args survive" true
                    (List.assoc_opt "lanes" args = Some (Json.String "4"))
              | _ -> Alcotest.fail "instant lost its args")
          | _ -> Alcotest.fail "no traceEvents array"))

let test_chrome_export_escaping () =
  with_collector (fun () ->
      Obs.span "quote\"and\\slash\nnewline" (fun () -> ());
      match Json.validate (Trace_export.to_string (Obs.snapshot ())) with
      | Ok () -> ()
      | Error m -> Alcotest.failf "escaping broke the JSON: %s" m)

(* The full pipeline's emitted Chrome/Perfetto trace — including the new
   blame-attribution instants — must re-parse with the report JSON parser
   and keep the attribution payload intact. *)
let test_trace_export_attribution_roundtrip () =
  let w = Registry.find "hdsearch-mid" in
  let tr = W.trace_cpu w in
  with_collector (fun () ->
      ignore (Analyzer.analyze tr.W.prog tr.W.traces);
      let s = Trace_export.to_string (Obs.snapshot ()) in
      match Json.parse s with
      | Error m -> Alcotest.failf "emitted trace does not re-parse: %s" m
      | Ok doc -> (
          match member "traceEvents" doc with
          | Some (Json.List events) ->
              let sites =
                List.filter
                  (fun e ->
                    member "name" e = Some (Json.String "divergence site"))
                  events
              in
              Alcotest.(check bool) "attribution instants exported" true
                (sites <> []);
              List.iter
                (fun e ->
                  Alcotest.(check bool) "instant phase" true
                    (member "ph" e = Some (Json.String "i"));
                  match member "args" e with
                  | Some (Json.Obj args) ->
                      List.iter
                        (fun k ->
                          Alcotest.(check bool) ("arg " ^ k) true
                            (List.mem_assoc k args))
                        [ "func"; "block"; "kind"; "lost_lane_slots" ]
                  | _ -> Alcotest.fail "attribution instant lost its args")
                sites;
              Alcotest.(check bool) "memory attribution exported" true
                (List.exists
                   (fun e ->
                     member "name" e = Some (Json.String "memory site"))
                   events)
          | _ -> Alcotest.fail "no traceEvents array"))

let contains_sub text needle =
  let nl = String.length needle and tl = String.length text in
  let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
  go 0

(* Prometheus text exposition escaping: metric names sanitize to the legal
   charset, HELP text escapes backslash and newline, label values escape
   backslash, double quote and newline. *)
let test_prometheus_escaping () =
  Alcotest.(check string) "name sanitized" "tf_weird_name_0"
    (Prom.sanitize "tf.weird name-0");
  Alcotest.(check string) "leading digit sanitized" "_f" (Prom.sanitize "0f");
  Alcotest.(check string) "help escapes" "line1\\nback\\\\slash"
    (Prom.escape_help "line1\nback\\slash");
  Alcotest.(check string) "label value escapes" "a\\\"b\\\\c\\nd"
    (Prom.escape_label_value "a\"b\\c\nd");
  let c =
    Obs.Counter.make "tf.test prom-escape"
      ~help:"first line\nsecond \\ line"
  in
  with_collector (fun () ->
      Obs.Counter.incr c;
      let text = Prom.to_string (Obs.snapshot ()) in
      Alcotest.(check bool) "sanitized name in exposition" true
        (contains_sub text "tf_test_prom_escape 1");
      Alcotest.(check bool) "escaped help in exposition" true
        (contains_sub text
           "# HELP tf_test_prom_escape first line\\nsecond \\\\ line");
      (* the raw newline must not have split the HELP line *)
      String.split_on_char '\n' text
      |> List.iter (fun line ->
             if line <> "" && line.[0] <> '#' then
               match String.rindex_opt line ' ' with
               | None -> Alcotest.failf "unparseable exposition line: %s" line
               | Some i ->
                   Alcotest.(check bool) ("numeric sample: " ^ line) true
                     (float_of_string_opt
                        (String.sub line (i + 1) (String.length line - i - 1))
                     <> None)))

let test_prometheus_export () =
  let c = Obs.Counter.make "tf_test_prom_counter" ~help:"a test counter" in
  let h = Obs.Histogram.make "tf_test_prom_histo" ~help:"a test histogram" in
  with_collector (fun () ->
      Obs.Counter.add c 5;
      List.iter (fun v -> Obs.Histogram.observe h v) [ 0.5; 3.0; 100.0 ];
      let text = Prom.to_string (Obs.snapshot ()) in
      let contains needle =
        let nl = String.length needle and tl = String.length text in
        let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
        go 0
      in
      List.iter
        (fun needle ->
          Alcotest.(check bool) (needle ^ " present") true (contains needle))
        [
          "# TYPE tf_test_prom_counter counter";
          "# HELP tf_test_prom_counter a test counter";
          "tf_test_prom_counter 5";
          "# TYPE tf_test_prom_histo histogram";
          "tf_test_prom_histo_bucket{le=\"+Inf\"} 3";
          "tf_test_prom_histo_count 3";
          "tf_test_prom_histo_sum 103.5";
          "tf_test_prom_histo_p50";
        ];
      (* every non-comment line is "name[{labels}] value" *)
      String.split_on_char '\n' text
      |> List.iter (fun line ->
             if line <> "" && line.[0] <> '#' then
               match String.rindex_opt line ' ' with
               | None -> Alcotest.failf "unparseable exposition line: %s" line
               | Some i -> (
                   let v = String.sub line (i + 1) (String.length line - i - 1) in
                   match float_of_string_opt v with
                   | Some _ -> ()
                   | None -> Alcotest.failf "non-numeric sample: %s" line)))

(* ------------------------------------------------------------------ *)
(* Logger                                                               *)

let with_log_buffer f =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let saved = Log.level () in
  Log.set_formatter ppf;
  Fun.protect
    ~finally:(fun () ->
      Log.set_formatter Format.err_formatter;
      match saved with Some l -> Log.set_level l | None -> Log.set_quiet ())
    (fun () ->
      f ();
      Format.pp_print_flush ppf ();
      Buffer.contents buf)

let test_log_threshold () =
  let out =
    with_log_buffer (fun () ->
        Log.set_level Log.Warn;
        Log.debug "hidden debug";
        Log.info "hidden info";
        Log.warn "visible warn";
        Log.err "visible error")
  in
  Alcotest.(check string) "only warn and error pass"
    "threadfuser: [warn] visible warn\nthreadfuser: [error] visible error\n"
    out

let test_log_fields_and_format () =
  let out =
    with_log_buffer (fun () ->
        Log.set_level Log.Debug;
        Log.info "replay %d done" 3
          ~fields:[ ("warp", "3"); ("diag", "bad lane") ])
  in
  Alcotest.(check string) "fields render as key=value, quoting spaces"
    "threadfuser: [info] replay 3 done warp=3 diag=\"bad lane\"\n" out

let test_log_quiet () =
  let out =
    with_log_buffer (fun () ->
        Log.set_quiet ();
        Log.err "not even errors")
  in
  Alcotest.(check string) "quiet silences everything" "" out

let test_log_of_string () =
  List.iter
    (fun (s, expect) ->
      Alcotest.(check bool) ("of_string " ^ s) true (Log.of_string s = expect))
    [
      ("debug", Some Log.Debug);
      ("INFO", Some Log.Info);
      ("warning", Some Log.Warn);
      ("err", Some Log.Error);
      ("verbose", None);
    ]

(* ------------------------------------------------------------------ *)
(* Domain safety: hammer the collector and logger from real domains     *)

(* Counters are atomic, the event log and histograms mutex-guarded, and
   the logger emits each record under a lock — so four domains hammering
   everything at once must lose nothing and interleave nothing. *)
let test_domain_hammer () =
  let domains = 4 and per_domain = 5_000 in
  let c = Obs.Counter.make "tf_test_domain_hammer" in
  let h = Obs.Histogram.make "tf_test_domain_hammer_hist" in
  let tr = Obs.track "hammer" in
  let log_out =
    with_log_buffer (fun () ->
        Log.set_level Log.Info;
        with_collector (fun () ->
            let worker d () =
              for i = 1 to per_domain do
                Obs.Counter.incr c;
                Obs.Histogram.observe h (float_of_int i);
                if i mod 50 = 0 then begin
                  Obs.instant ~track:tr "tick"
                    ~args:[ ("domain", string_of_int d) ];
                  Obs.span ~track:tr "work" (fun () -> ())
                end;
                if i mod 100 = 0 then
                  Log.info "hammer record"
                    ~fields:
                      [ ("domain", string_of_int d); ("i", string_of_int i) ]
              done
            in
            let spawned =
              List.init (domains - 1) (fun d -> Domain.spawn (worker (d + 1)))
            in
            worker 0 ();
            List.iter Domain.join spawned;
            Alcotest.(check int) "no lost counter increments"
              (domains * per_domain) (Obs.Counter.value c);
            Alcotest.(check int) "no lost histogram samples"
              (domains * per_domain) (Obs.Histogram.count h);
            let snap = Obs.snapshot () in
            let mine =
              List.filter
                (function
                  | Obs.Complete { track; _ } | Obs.Instant { track; _ } ->
                      Obs.track_id track = Obs.track_id tr)
                snap.Obs.events
            in
            Alcotest.(check int) "no lost or torn events"
              (domains * (per_domain / 50) * 2)
              (List.length mine + snap.Obs.events_dropped)))
  in
  let lines =
    String.split_on_char '\n' log_out
    |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check int) "no lost log records"
    (domains * (per_domain / 100))
    (List.length lines);
  List.iter
    (fun l ->
      if
        not
          (String.length l > 0
          && String.sub l 0 (min 12 (String.length l)) = "threadfuser:")
      then Alcotest.failf "interleaved log line: %S" l)
    lines

(* The analyzer's own instrumentation under domain-parallel replay: four
   domains recording into the shared collector must lose nothing, so
   counter totals, histogram sample counts, the event total and the
   Prometheus counter lines all match the serial replay exactly (event
   *order* and span durations are the only things allowed to differ).
   The same goes for the two trace sources of the checked pipeline: a
   session fed the same traces speaks the stage vocabulary of
   [analyze_checked]. *)
let test_parallel_replay_obs_parity () =
  let bfs = Registry.find "bfs" in
  let tr = W.trace_cpu bfs in
  (* wall-clock counters (tf_par_merge_ns) are honest about elapsed time,
     which of course differs run to run — parity is about the
     deterministic counts *)
  let is_timing name =
    let suffix = "_ns" in
    let ln = String.length name and ls = String.length suffix in
    ln >= ls && String.sub name (ln - ls) ls = suffix
  in
  let capture run =
    with_collector (fun () ->
        run ();
        let snap = Obs.snapshot () in
        let counters =
          List.filter
            (fun c -> not (is_timing (Obs.counter_name c)))
            snap.Obs.counters
        in
        let prom_counter_lines =
          String.split_on_char '\n' (Prom.to_string snap)
          |> List.filter (fun l ->
                 List.exists
                   (fun c ->
                     let n = Obs.counter_name c in
                     String.length l > String.length n
                     && String.sub l 0 (String.length n) = n)
                   counters)
          |> List.sort compare
        in
        ( List.map
            (fun c -> (Obs.counter_name c, Obs.Counter.value c))
            counters,
          List.map
            (fun h -> (Obs.histogram_name h, Obs.Histogram.count h))
            snap.Obs.histograms,
          List.length snap.Obs.events + snap.Obs.events_dropped,
          prom_counter_lines ))
  in
  let analyze domains () =
    ignore
      (Analyzer.analyze
         ~options:{ Analyzer.default_options with Analyzer.domains }
         tr.W.prog tr.W.traces)
  in
  let c1, h1, e1, p1 = capture (analyze 1) in
  let c4, h4, e4, p4 = capture (analyze 4) in
  Alcotest.(check (list (pair string int)))
    "counter totals match serial" (List.sort compare c1)
    (List.sort compare c4);
  Alcotest.(check (list (pair string int)))
    "histogram sample counts match serial" (List.sort compare h1)
    (List.sort compare h4);
  Alcotest.(check int) "no replay event lost or invented" e1 e4;
  Alcotest.(check (list string)) "prometheus counter lines match serial" p1 p4;
  let cb, hb, eb, _ =
    capture (fun () -> ignore (Analyzer.analyze_checked tr.W.prog tr.W.traces))
  in
  let cs, hs, es, _ =
    capture (fun () ->
        let s = Analyzer.Session.create tr.W.prog in
        Array.iter (Analyzer.Session.add_thread s) tr.W.traces;
        ignore (Analyzer.Session.finish s))
  in
  Alcotest.(check (list (pair string int)))
    "session counter totals match batch" (List.sort compare cb)
    (List.sort compare cs);
  Alcotest.(check (list (pair string int)))
    "session histogram sample counts match batch" (List.sort compare hb)
    (List.sort compare hs);
  Alcotest.(check int) "session events match batch" eb es

(* A snapshot is a point-in-time copy: with four domains observing into a
   histogram while we snapshot and export, every exposition must stay
   internally consistent — the +Inf bucket is computed from the frozen
   samples and the count from the frozen count, so they can only agree if
   both were frozen together.  Against the old live-reference snapshot
   this test tears within a few iterations. *)
let test_snapshot_consistent_under_load () =
  let h = Obs.Histogram.make "tf_test_snapshot_load" ~help:"load test" in
  let c = Obs.Counter.make "tf_test_snapshot_load_ctr" in
  with_collector (fun () ->
      let stop = Atomic.make false in
      let spawned =
        List.init 3 (fun d ->
            Domain.spawn (fun () ->
                let i = ref 0 in
                while not (Atomic.get stop) do
                  (* burst-then-sleep: a tight spin on the collector mutex
                     starves the snapshotting domain (minutes instead of
                     seconds) and balloons the sample array to its
                     decimation cap, which makes every export expensive.
                     A few thousand writes per second is ample pressure to
                     catch a torn live-reference export. *)
                  for _ = 1 to 32 do
                    incr i;
                    Obs.Counter.incr c;
                    Obs.Histogram.observe h (float_of_int ((d * 31) + !i))
                  done;
                  Unix.sleepf 0.001
                done))
      in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set stop true;
          List.iter Domain.join spawned)
        (fun () ->
          for _ = 1 to 50 do
            let snap = Obs.snapshot () in
            (* frozen instruments: retained samples and count agree *)
            List.iter
              (fun fh ->
                let count = Obs.Histogram.count fh in
                let retained = Array.length (Obs.Histogram.samples fh) in
                Alcotest.(check bool)
                  "frozen count >= retained samples" true (count >= retained))
              snap.Obs.histograms;
            (* the exposition invariant: +Inf bucket equals _count exactly *)
            let text = Prom.to_string snap in
            let lines = String.split_on_char '\n' text in
            let value_of prefix =
              List.find_map
                (fun l ->
                  if
                    String.length l > String.length prefix
                    && String.sub l 0 (String.length prefix) = prefix
                  then
                    float_of_string_opt
                      (String.sub l
                         (String.length prefix)
                         (String.length l - String.length prefix))
                  else None)
                lines
            in
            match
              ( value_of "tf_test_snapshot_load_bucket{le=\"+Inf\"} ",
                value_of "tf_test_snapshot_load_count " )
            with
            | Some inf, Some count ->
                Alcotest.(check (float 0.0))
                  "+Inf bucket equals _count in one frozen snapshot" count inf
            | _ -> () (* histogram still empty this early *)
          done))

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                      *)

let test_flight_ring_bounds () =
  (try
     ignore (Obs.Flight.create ~capacity:0 "bad");
     Alcotest.fail "capacity 0 accepted"
   with Invalid_argument _ -> ());
  let fl = Obs.Flight.create ~capacity:4 "ring" in
  Alcotest.(check string) "label" "ring" (Obs.Flight.label fl);
  Alcotest.(check int) "capacity" 4 (Obs.Flight.capacity fl);
  for i = 1 to 10 do
    Obs.Flight.note fl (Printf.sprintf "e%d" i)
  done;
  Alcotest.(check int) "recorded counts everything" 10 (Obs.Flight.recorded fl);
  Alcotest.(check int) "dropped = recorded - capacity" 6 (Obs.Flight.dropped fl);
  let names =
    List.map
      (function
        | Obs.Instant { name; _ } -> name
        | Obs.Complete { name; _ } -> name)
      (Obs.Flight.events fl)
  in
  Alcotest.(check (list string)) "last capacity events, oldest first"
    [ "e7"; "e8"; "e9"; "e10" ] names

let test_flight_records_while_disabled () =
  Obs.reset ();
  (* no with_collector: the ring must work with the collector off, since
     supervisors note lifecycle events for sessions they cannot reproduce *)
  let fl = Obs.Flight.create ~capacity:8 "cold" in
  Obs.Flight.note fl "lifecycle";
  Alcotest.(check int) "note lands with collector off" 1
    (Obs.Flight.recorded fl)

let test_flight_attach_taps_domain () =
  let fl = Obs.Flight.create ~capacity:64 "tap" in
  with_collector (fun () ->
      Obs.Flight.with_attached fl (fun () ->
          Obs.instant ~track:Obs.pipeline "tapped";
          Obs.span "tapped_span" (fun () -> ()));
      (* detached again: this event goes only to the global log *)
      Obs.instant ~track:Obs.pipeline "not_tapped";
      (* an unattached domain records nothing into the ring *)
      Domain.join
        (Domain.spawn (fun () ->
             Obs.instant ~track:Obs.pipeline "other_domain"));
      let names =
        List.map
          (function
            | Obs.Instant { name; _ } -> name
            | Obs.Complete { name; _ } -> name)
          (Obs.Flight.events fl)
      in
      Alcotest.(check (list string))
        "ring holds exactly the attached domain's events"
        [ "tapped"; "tapped_span" ] names;
      Alcotest.(check int) "global log saw all four" 4
        (List.length (Obs.snapshot ()).Obs.events))

let test_flight_snapshot_roundtrip () =
  let c = Obs.Counter.make "tf_test_flight_ctr" ~help:"flight test" in
  with_collector (fun () ->
      let fl = Obs.Flight.create ~capacity:4 "dump" in
      Obs.Counter.add c 3;
      for i = 1 to 6 do
        Obs.Flight.note fl ~args:[ ("i", string_of_int i) ]
          (Printf.sprintf "n%d" i)
      done;
      let snap = Obs.flight_snapshot fl in
      Alcotest.(check int) "snapshot events come from the ring" 4
        (List.length snap.Obs.events);
      Alcotest.(check int) "snapshot dropped comes from the ring" 2
        snap.Obs.events_dropped;
      (* instruments are the global collector's *)
      Alcotest.(check bool) "global counters present" true
        (List.exists
           (fun fc -> Obs.counter_name fc = "tf_test_flight_ctr")
           snap.Obs.counters);
      (* the dump payload: Chrome trace re-parses and keeps the ring's
         events; the metrics snapshot is a valid exposition *)
      match Json.parse (Trace_export.to_string snap) with
      | Error m -> Alcotest.failf "flight trace does not re-parse: %s" m
      | Ok doc -> (
          match member "traceEvents" doc with
          | Some (Json.List events) ->
              let names =
                List.filter_map
                  (fun e ->
                    match member "name" e with
                    | Some (Json.String n) -> Some n
                    | _ -> None)
                  events
              in
              List.iter
                (fun n ->
                  Alcotest.(check bool) (n ^ " survives the dump") true
                    (List.mem n names))
                [ "n3"; "n4"; "n5"; "n6" ];
              Alcotest.(check bool) "overwritten events are gone" false
                (List.mem "n1" names)
          | _ -> Alcotest.fail "no traceEvents array"))

(* ------------------------------------------------------------------ *)
(* Always-emitted exposition families                                   *)

let test_prometheus_always_emitted () =
  Obs.reset ();
  (* collector off and empty: the standing families must still be there *)
  let text = Prom.to_string (Obs.snapshot ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true
        (contains_sub text needle))
    [
      "# TYPE tf_obs_events_dropped_total counter";
      "# HELP tf_obs_events_dropped_total";
      "tf_obs_events_dropped_total 0";
      "# TYPE tf_build_info gauge";
      Printf.sprintf "tf_build_info{version=\"%s\",ocaml=\"%s\"} 1"
        (Prom.escape_label_value Prom.version)
        (Prom.escape_label_value Sys.ocaml_version);
      "# TYPE tf_uptime_seconds gauge";
      "tf_uptime_seconds ";
    ];
  (* uptime is the snapshot's collector-clock age, in seconds *)
  let snap = Obs.snapshot () in
  Alcotest.(check bool) "uptime is non-negative" true (snap.Obs.taken_us >= 0.0);
  (* a dropped count > 0 is reported too *)
  let dropped_text =
    with_collector (fun () ->
        Obs.set_max_events 2;
        Fun.protect
          ~finally:(fun () -> Obs.set_max_events 500_000)
          (fun () ->
            for _ = 1 to 5 do
              Obs.instant ~track:Obs.pipeline "x"
            done;
            Prom.to_string (Obs.snapshot ())))
  in
  Alcotest.(check bool) "non-zero drops exported" true
    (contains_sub dropped_text "tf_obs_events_dropped_total 3")

(* ------------------------------------------------------------------ *)
(* End-to-end: the instrumented pipeline                                *)

(* A team barrier between two phases: every warp crosses it once. *)
let barrier_program () =
  let open Threadfuser_prog in
  let prog =
    Program.assemble
      [
        Build.(
          func "worker"
            [
              mov (reg 6) (reg 0);
              mov (mem ~scale:8 ~index:6 ~disp:0x20000 ()) (reg 6);
              barrier (imm 0x50000);
              mov (reg 7) (mem ~scale:8 ~index:6 ~disp:0x20000 ());
              ret;
            ]);
      ]
  in
  let module Machine = Threadfuser_machine.Machine in
  let m = Machine.create prog in
  let r =
    Machine.run_workers m ~worker:"worker"
      ~args:(Array.init 16 (fun i -> [ i; 16 ]))
  in
  (prog, r.Machine.traces)

(* With the collector on, the pipeline emits its phase spans, per-warp
   replay spans and attribution instants, and each replay counter equals
   the merged replay totals of the report, at one domain and across a
   two-domain shard merge. *)
let test_pipeline_emits_phases () =
  let hd = W.trace_cpu (Registry.find "hdsearch-mid") in
  let bar_prog, bar_traces = barrier_program () in
  List.iter
    (fun (name, prog, traces, domain_counts) ->
      List.iter
        (fun domains ->
          let tag = Printf.sprintf "%s -j %d" name domains in
          let options =
            { Analyzer.default_options with Analyzer.warp_size = 8; domains }
          in
          if domains > 1 then
            Alcotest.(check int)
              (tag ^ ": replay runs on two domains")
              2
              (Threadfuser.Par_replay.auto_domains ~requested:domains
                 ~items:((Array.length traces + 7) / 8)
                 ~work:
                   (Array.fold_left
                      (fun acc (t : Threadfuser_trace.Thread_trace.t) ->
                        acc + Array.length t.Threadfuser_trace.Thread_trace.events)
                      0 traces));
          with_collector (fun () ->
              let r = (Analyzer.analyze ~options prog traces).Analyzer.report in
              let snap = Obs.snapshot () in
              let phase_names =
                List.filter_map
                  (function
                    | Obs.Complete { name; track; _ }
                      when Obs.track_id track = Obs.track_id Obs.pipeline ->
                        Some name
                    | _ -> None)
                  snap.Obs.events
              in
              List.iter
                (fun phase ->
                  Alcotest.(check bool) (tag ^ ": phase " ^ phase) true
                    (List.mem phase phase_names))
                [ "dcfg"; "ipdom"; "warp_formation"; "replay"; "coalesce" ];
              let on track =
                List.exists
                  (function
                    | Obs.Complete { track = t; _ } | Obs.Instant { track = t; _ }
                      ->
                        Obs.track_id t = Obs.track_id track)
                  snap.Obs.events
              in
              Alcotest.(check bool) (tag ^ ": per-warp replay spans") true
                (on Obs.replay_track);
              (* the report lists every divergence site it has, so the
                 sum over it is the merged total *)
              Alcotest.(check bool) (tag ^ ": site list complete") true
                (List.length r.Metrics.divergence_sites < 20);
              let value name = Obs.Counter.value (Obs.Counter.make name) in
              List.iter
                (fun (counter, total) ->
                  Alcotest.(check int) (tag ^ ": " ^ counter) total (value counter))
                [
                  ("tf_warps_replayed_total", r.Metrics.n_warps);
                  ("tf_mem_instrs_total", r.Metrics.total_mem_issues);
                  ("tf_mem_transactions_total", r.Metrics.total_mem_txns);
                  ("tf_lock_serializations_total", r.Metrics.serializations);
                  ("tf_serialized_instrs_total", r.Metrics.serialized_instrs);
                  ("tf_barrier_syncs_total", r.Metrics.barrier_syncs);
                  ( "tf_divergence_splits_total",
                    List.fold_left
                      (fun acc (s : Metrics.div_site) -> acc + s.Metrics.ds_splits)
                      0 r.Metrics.divergence_sites );
                ];
              (* totals that read 0 would pass the equalities vacuously *)
              if name = "hdsearch-mid" then begin
                Alcotest.(check bool) (tag ^ ": locks, memory and splits seen")
                  true
                  (r.Metrics.serializations > 0
                  && r.Metrics.total_mem_txns > 0
                  && value "tf_divergence_splits_total" > 0);
                Alcotest.(check bool) (tag ^ ": attribution instants") true
                  (on Obs.blame_track)
              end
              else
                Alcotest.(check bool) (tag ^ ": barriers seen") true
                  (r.Metrics.barrier_syncs > 0)))
        domain_counts)
    [
      ("hdsearch-mid", hd.W.prog, hd.W.traces, [ 1; 2 ]);
      (* too small to shard *)
      ("barrier", bar_prog, bar_traces, [ 1 ]);
    ]

let test_pipeline_disabled_is_silent () =
  let bfs = Registry.find "bfs" in
  let tr = W.trace_cpu bfs in
  Obs.reset ();
  ignore (Analyzer.analyze tr.W.prog tr.W.traces);
  let snap = Obs.snapshot () in
  Alcotest.(check int) "no events with the collector off" 0
    (List.length snap.Obs.events)

let () =
  Alcotest.run "obs"
    [
      ( "collector",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "counter registry idempotent" `Quick
            test_counter_registry_idempotent;
          Alcotest.test_case "histogram quantiles" `Quick
            test_histogram_quantiles;
          Alcotest.test_case "histogram disabled" `Quick test_histogram_disabled;
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "span exception safety" `Quick
            test_span_exception_safe;
          Alcotest.test_case "disabled records nothing" `Quick
            test_span_disabled_records_nothing;
          Alcotest.test_case "event cap" `Quick test_event_cap;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace well-formed" `Quick
            test_chrome_export_well_formed;
          Alcotest.test_case "chrome trace escaping" `Quick
            test_chrome_export_escaping;
          Alcotest.test_case "attribution events round-trip" `Quick
            test_trace_export_attribution_roundtrip;
          Alcotest.test_case "prometheus exposition" `Quick
            test_prometheus_export;
          Alcotest.test_case "prometheus escaping" `Quick
            test_prometheus_escaping;
          Alcotest.test_case "always-emitted families" `Quick
            test_prometheus_always_emitted;
        ] );
      ( "flight",
        [
          Alcotest.test_case "ring bounds and drop accounting" `Quick
            test_flight_ring_bounds;
          Alcotest.test_case "records with collector off" `Quick
            test_flight_records_while_disabled;
          Alcotest.test_case "attach taps the calling domain" `Quick
            test_flight_attach_taps_domain;
          Alcotest.test_case "flight snapshot round-trips" `Quick
            test_flight_snapshot_roundtrip;
        ] );
      ( "log",
        [
          Alcotest.test_case "threshold" `Quick test_log_threshold;
          Alcotest.test_case "fields" `Quick test_log_fields_and_format;
          Alcotest.test_case "quiet" `Quick test_log_quiet;
          Alcotest.test_case "of_string" `Quick test_log_of_string;
        ] );
      ( "domains",
        [
          Alcotest.test_case "four-domain hammer loses nothing" `Quick
            test_domain_hammer;
          Alcotest.test_case "snapshot consistent under load" `Quick
            test_snapshot_consistent_under_load;
          Alcotest.test_case "parallel replay obs parity" `Quick
            test_parallel_replay_obs_parity;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "emits phase spans and counters" `Quick
            test_pipeline_emits_phases;
          Alcotest.test_case "disabled pipeline is silent" `Quick
            test_pipeline_disabled_is_silent;
        ] );
    ]
