(* Streaming sessions: the byte-identity contract.  For any chunking of
   the input stream, any session budget (spill or no spill) and any
   domain count, [Analyzer.Session.finish] must produce artifacts
   byte-identical to the batch [Analyzer.analyze_checked] over the same
   traces — and the session's in-memory footprint must stay bounded by
   the budget while ingesting trace sets far larger than it. *)

module W = Threadfuser_workloads.Workload
module Registry = Threadfuser_workloads.Registry
module Analyzer = Threadfuser.Analyzer
module Session = Threadfuser.Analyzer.Session
module Metrics = Threadfuser.Metrics
module Par_replay = Threadfuser.Par_replay
module Warp_serial = Threadfuser.Warp_serial
module Pack = Threadfuser_trace.Pack
module Thread_trace = Threadfuser_trace.Thread_trace
module Event = Threadfuser_trace.Event
module Tf_error = Threadfuser_util.Tf_error
module Report_json = Threadfuser_report.Report_json
module Flamegraph = Threadfuser_report.Flamegraph
module Obs = Threadfuser_obs.Obs

let options ~domains =
  {
    Analyzer.default_options with
    Analyzer.warp_size = 8;
    domains;
    gen_warp_trace = true;
    record_timeline = true;
  }

(* Feed [stream] to [session] in chunks cut by [sizes] (cycled). *)
let feed_chunked session stream sizes =
  let n = String.length stream in
  let pos = ref 0 and i = ref 0 in
  let sizes = Array.of_list sizes in
  while !pos < n do
    let len = min (max 1 sizes.(!i mod Array.length sizes)) (n - !pos) in
    Session.feed session ~off:!pos ~len stream;
    pos := !pos + len;
    incr i
  done

let check_equal ~tag (batch : Analyzer.checked) (streamed : Analyzer.checked) =
  Alcotest.(check string)
    (tag ^ ": report JSON")
    (Report_json.to_string batch.Analyzer.result.Analyzer.report)
    (Report_json.to_string streamed.Analyzer.result.Analyzer.report);
  Alcotest.(check string)
    (tag ^ ": folded flamegraph")
    (Flamegraph.folded ~weight:Flamegraph.Lost batch.Analyzer.result.Analyzer.flame)
    (Flamegraph.folded ~weight:Flamegraph.Lost
       streamed.Analyzer.result.Analyzer.flame);
  Alcotest.(check bool)
    (tag ^ ": timelines")
    true
    (batch.Analyzer.result.Analyzer.timelines
    = streamed.Analyzer.result.Analyzer.timelines);
  (match
     ( batch.Analyzer.result.Analyzer.warp_trace,
       streamed.Analyzer.result.Analyzer.warp_trace )
   with
  | Some b, Some s ->
      Alcotest.(check string)
        (tag ^ ": warp trace bytes")
        (Warp_serial.to_string b) (Warp_serial.to_string s)
  | None, None -> ()
  | _ -> Alcotest.fail (tag ^ ": warp trace presence differs"));
  Alcotest.(check bool)
    (tag ^ ": quarantine set")
    true
    (batch.Analyzer.quarantined = streamed.Analyzer.quarantined);
  Alcotest.(check bool)
    (tag ^ ": diagnostics")
    true
    (batch.Analyzer.diagnostics = streamed.Analyzer.diagnostics)

let session_over ?budget_bytes ~options ~chunks traces prog =
  let s = Session.create ~options ?budget_bytes prog in
  feed_chunked s (Pack.encode traces) chunks;
  Alcotest.(check bool) "every counted block consumed" true
    (Session.input_done s);
  Alcotest.(check int) "all threads ingested" (Array.length traces)
    (Session.threads_ingested s);
  Session.finish s

(* Clean workload traces: chunkings × budgets (forcing and not forcing a
   spill) × domain counts. *)
let test_identical_to_batch () =
  List.iter
    (fun name ->
      let traced = W.trace_cpu (Registry.find name) in
      List.iter
        (fun domains ->
          let options = options ~domains in
          let batch =
            Analyzer.analyze_checked ~options traced.W.prog traced.W.traces
          in
          List.iter
            (fun (chunks, budget_bytes) ->
              let streamed =
                session_over ?budget_bytes ~options ~chunks traced.W.traces
                  traced.W.prog
              in
              check_equal
                ~tag:
                  (Printf.sprintf "%s -j%d chunks=%s budget=%s" name domains
                     (String.concat "," (List.map string_of_int chunks))
                     (match budget_bytes with
                     | None -> "default"
                     | Some b -> string_of_int b))
                batch streamed)
            [
              ([ max_int ], None);
              ([ 1; 7; 3 ], None);
              ([ 4096 ], Some 1);
              (* 1-byte budget: block bound clamps to 64 KiB, spool spills
                 constantly — the maximal-stress configuration *)
              ([ 13; 4096; 1 ], Some 1);
            ])
        [ 1; 4 ])
    [ "vectoradd"; "bfs" ]

(* QCheck: random chunk boundaries, random budget, random domains. *)
let test_random_chunking =
  let traced = lazy (W.trace_cpu (Registry.find "vectoradd")) in
  let batch = Hashtbl.create 4 in
  let batch_for domains =
    match Hashtbl.find_opt batch domains with
    | Some c -> c
    | None ->
        let traced = Lazy.force traced in
        let c =
          Analyzer.analyze_checked ~options:(options ~domains) traced.W.prog
            traced.W.traces
        in
        Hashtbl.add batch domains c;
        c
  in
  QCheck.Test.make
    ~name:"streamed report independent of (chunking, budget, domains)"
    ~count:10
    QCheck.(
      triple
        (list_of_size Gen.(1 -- 8) (int_range 1 2048))
        (int_range 1 (1 lsl 20))
        (int_range 1 4))
    (fun (chunks, budget_bytes, domains) ->
      let traced = Lazy.force traced in
      let streamed =
        session_over ~budget_bytes ~options:(options ~domains) ~chunks
          traced.W.traces traced.W.prog
      in
      let batch = batch_for domains in
      Report_json.to_string batch.Analyzer.result.Analyzer.report
      = Report_json.to_string streamed.Analyzer.result.Analyzer.report
      && batch.Analyzer.quarantined = streamed.Analyzer.quarantined)

(* Quarantine parity: damaged threads (bad block refs, unbalanced calls,
   a barrier deserter) stream to the same partial report, diagnostics and
   quarantine set as the batch path.  Quarantine is by tid, so a clean
   thread sharing its tid with a later bad one is excluded too. *)
let test_quarantine_parity () =
  let traced = W.trace_cpu (Registry.find "vectoradd") in
  let bad_call =
    Thread_trace.of_events 9001 [| Event.Call 9999; Event.Return |]
  in
  let deserter =
    (* casts a lone barrier vote; every other thread disagrees *)
    Thread_trace.of_events 9002 [| Event.Barrier 0xdead |]
  in
  let clean_dup = { (traced.W.traces.(0)) with Thread_trace.tid = 9003 } in
  let bad_dup =
    Thread_trace.of_events 9003 [| Event.Lock_rel 0x10; Event.Return |]
  in
  let options = options ~domains:2 in
  List.iter
    (fun (tag, traces, excluded) ->
      let batch = Analyzer.analyze_checked ~options traced.W.prog traces in
      Alcotest.(check (list int))
        (tag ^ ": quarantined tids")
        excluded
        (List.sort compare (List.map fst batch.Analyzer.quarantined));
      let streamed =
        session_over ~options ~chunks:[ 37; 1; 511 ] traces traced.W.prog
      in
      check_equal ~tag batch streamed)
    [
      ( "damaged set",
        Array.append traced.W.traces [| bad_call; deserter |],
        [ 9001; 9002 ] );
      ( "duplicate tid",
        Array.concat [ [| clean_dup |]; traced.W.traces; [| bad_dup |] ],
        [ 9003; 9003 ] );
    ]

(* The memory contract: ingesting a stream much larger than the budget
   keeps [buffered_bytes] under it and spills the rest to disk. *)
let test_bounded_memory () =
  let traced = W.trace_cpu ~threads:64 (Registry.find "hdsearch-mid") in
  let stream = Pack.encode traced.W.traces in
  let budget_bytes = 128 * 1024 in
  Alcotest.(check bool) "fixture larger than budget" true
    (String.length stream > 4 * budget_bytes);
  let s = Session.create ~options:(options ~domains:1) ~budget_bytes traced.W.prog in
  let peak = ref 0 in
  let pos = ref 0 in
  let n = String.length stream in
  while !pos < n do
    let len = min 4096 (n - !pos) in
    Session.feed s ~off:!pos ~len stream;
    peak := max !peak (Session.buffered_bytes s);
    pos := !pos + len
  done;
  Alcotest.(check bool)
    (Printf.sprintf "peak in-memory bytes %d <= budget %d" !peak budget_bytes)
    true (!peak <= budget_bytes);
  Alcotest.(check bool) "the rest went to the spill file" true
    (Session.spilled_bytes s > String.length stream / 2);
  Alcotest.(check int) "ingestion metered" n (Session.bytes_ingested s);
  let c = Session.finish s in
  let batch =
    Analyzer.analyze_checked ~options:(options ~domains:1) traced.W.prog
      traced.W.traces
  in
  Alcotest.(check string) "spilled session still byte-identical"
    (Report_json.to_string batch.Analyzer.result.Analyzer.report)
    (Report_json.to_string c.Analyzer.result.Analyzer.report);
  Session.close s

(* The decoded-byte contract: the spool tail is charged its decoded heap
   size ([Thread_trace.heap_bytes]), so a stream that decodes to at least
   8x the budget still keeps [buffered_bytes] under it after every feed,
   and spills.  Replay batches are cut on decoded bytes too: read from
   the [replay] spans' [warps] args, every batch holds at most half a
   budget of decoded traces plus its last warp. *)
let test_decoded_budget () =
  let traced = W.trace_cpu ~threads:256 (Registry.find "mcrouter-mid") in
  let traces = traced.W.traces in
  let n = Array.length traces in
  let stream = Pack.encode traces in
  let budget_bytes = 128 * 1024 in
  let spill_at = budget_bytes / 2 in
  let sizes = Array.map Thread_trace.heap_bytes traces in
  let decoded = Array.fold_left ( + ) 0 sizes in
  Alcotest.(check bool)
    (Printf.sprintf "decoded size %d >= 8 x budget" decoded)
    true
    (decoded >= 8 * budget_bytes);
  let options = options ~domains:1 in
  let ws = options.Analyzer.warp_size in
  let s = Session.create ~options ~budget_bytes traced.W.prog in
  let pos = ref 0 in
  while !pos < String.length stream do
    let len = min 4096 (String.length stream - !pos) in
    Session.feed s ~off:!pos ~len stream;
    pos := !pos + len;
    let held = Session.buffered_bytes s in
    if held > budget_bytes then
      Alcotest.failf "in-memory bytes %d > budget %d after %d stream bytes"
        held budget_bytes !pos
  done;
  Alcotest.(check bool) "spilled" true (Session.spilled_bytes s > 0);
  Obs.reset ();
  Obs.set_enabled true;
  let c, snap =
    Fun.protect
      ~finally:(fun () ->
        Obs.set_enabled false;
        Obs.reset ())
      (fun () ->
        let c = Session.finish s in
        (c, Obs.snapshot ()))
  in
  Alcotest.(check int) "no span dropped" 0 snap.Obs.events_dropped;
  let batches =
    List.filter_map
      (function
        | Obs.Complete { name = "replay"; args; _ } ->
            Some (int_of_string (List.assoc "warps" args))
        | _ -> None)
      snap.Obs.events
  in
  Alcotest.(check bool) "several replay batches" true (List.length batches > 1);
  let sum lo hi =
    let b = ref 0 in
    for i = lo to hi - 1 do
      b := !b + sizes.(i)
    done;
    !b
  in
  let first =
    List.fold_left
      (fun first warps ->
        let last = min n (first + (warps * ws)) in
        let last_warp = sum (max first (last - ws)) last in
        let held = sum first last in
        if held > spill_at + last_warp then
          Alcotest.failf
            "batch of threads %d..%d holds %d decoded bytes > %d + last warp %d"
            first (last - 1) held spill_at last_warp;
        last)
      0 batches
  in
  Alcotest.(check int) "batches cover every thread" n first;
  let batch = Analyzer.analyze_checked ~options traced.W.prog traces in
  Alcotest.(check string) "decoded-spool session byte-identical"
    (Report_json.to_string batch.Analyzer.result.Analyzer.report)
    (Report_json.to_string c.Analyzer.result.Analyzer.report);
  Session.close s

(* Corruption mid-stream degrades the session, not the process: the
   sticky failure is reported, later chunks are discarded, and finish
   still analyzes the clean prefix. *)
let test_corrupt_midstream () =
  let traced = W.trace_cpu (Registry.find "vectoradd") in
  let stream = Pack.encode traced.W.traces in
  let cut = String.length stream / 2 in
  let s = Session.create ~options:(options ~domains:1) traced.W.prog in
  Session.feed s ~len:cut stream;
  let prefix = Session.threads_ingested s in
  Session.feed s "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff";
  (match Session.failure s with
  | Some d ->
      Alcotest.(check bool) "typed corruption" true
        (d.Tf_error.kind = Tf_error.Corrupt_input)
  | None -> Alcotest.fail "corruption not recorded");
  (* post-corruption bytes are discarded, not buffered *)
  let before = Session.buffered_bytes s in
  Session.feed s (String.make 65536 'z');
  Alcotest.(check int) "chunks after corruption discarded" before
    (Session.buffered_bytes s);
  Alcotest.(check bool) "stream never completed" false (Session.input_done s);
  let c = Session.finish s in
  Alcotest.(check int) "prefix analyzed" prefix
    c.Analyzer.result.Analyzer.report.Metrics.coverage.Metrics.threads_total;
  (match c.Analyzer.diagnostics with
  | d :: _ -> Alcotest.(check bool) "failure leads diagnostics" true
      (d.Tf_error.kind = Tf_error.Corrupt_input)
  | [] -> Alcotest.fail "no diagnostics on a corrupt session")

(* A spill file damaged on disk fails its block's CRC when the pipeline
   re-reads it: the checked pipeline's fallback reports [Corrupt_input]
   instead of analyzing different traces. *)
let test_damaged_spill () =
  let traced = W.trace_cpu ~threads:64 (Registry.find "hdsearch-mid") in
  let tmp_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tf-spill-%d" (Unix.getpid ()))
  in
  Sys.mkdir tmp_dir 0o700;
  let s =
    Session.create ~options:(options ~domains:1) ~budget_bytes:(128 * 1024)
      ~tmp_dir traced.W.prog
  in
  feed_chunked s (Pack.encode traced.W.traces) [ 4096 ];
  Alcotest.(check bool) "spilled" true (Session.spilled_bytes s > 0);
  let spool =
    match Sys.readdir tmp_dir with
    | [| f |] -> Filename.concat tmp_dir f
    | fs -> Alcotest.failf "%d spill files" (Array.length fs)
  in
  (* flip a byte in the middle of the first block's payload, which is
     on disk: the channel flushed it long before *)
  let fd = Unix.openfile spool [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let head = Bytes.create 32 in
      Alcotest.(check int) "block header on disk" 32 (Unix.read fd head 0 32);
      let r = Pack.reader (Bytes.to_string head) in
      ignore (Pack.read_uint r);
      let payload_len = Pack.read_uint r in
      let at = r.Pack.pos + (payload_len / 2) in
      Alcotest.(check bool) "payload on disk" true
        ((Unix.fstat fd).Unix.st_size > at);
      ignore (Unix.lseek fd at Unix.SEEK_SET);
      let b = Bytes.create 1 in
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x10));
      ignore (Unix.lseek fd at Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1));
  let c = Session.finish s in
  Session.close s;
  Sys.rmdir tmp_dir;
  match
    List.filter
      (fun (d : Tf_error.diagnostic) -> d.Tf_error.kind = Tf_error.Corrupt_input)
      c.Analyzer.diagnostics
  with
  | [ d ] ->
      Alcotest.(check bool) "names the spill file" true
        (String.starts_with ~prefix:"session spill file damaged: "
           d.Tf_error.message);
      Alcotest.(check int) "nothing analyzed" 0
        c.Analyzer.result.Analyzer.report.Metrics.coverage
          .Metrics.threads_analyzed
  | ds -> Alcotest.failf "%d corrupt-input diagnostics" (List.length ds)

(* Lifecycle edges: empty stream, misuse after finish/close, bad budgets. *)
let test_lifecycle () =
  let traced = W.trace_cpu (Registry.find "vectoradd") in
  let prog = traced.W.prog in
  (* empty stream (magic + zero count) analyzes like an empty batch *)
  let s = Session.create ~options:(options ~domains:1) prog in
  Session.feed s (Pack.encode [||]);
  let c = Session.finish s in
  let batch = Analyzer.analyze_checked ~options:(options ~domains:1) prog [||] in
  Alcotest.(check string) "empty session = empty batch"
    (Report_json.to_string batch.Analyzer.result.Analyzer.report)
    (Report_json.to_string c.Analyzer.result.Analyzer.report);
  (* finish is idempotent; feeding afterwards is a programming error *)
  Alcotest.(check bool) "finish idempotent" true (Session.finish s == c);
  (match Session.feed s "x" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "feed after finish accepted");
  (* close keeps a finished result, kills an open session *)
  Session.close s;
  Alcotest.(check bool) "close keeps the result" true (Session.finish s == c);
  let s2 = Session.create prog in
  Session.close s2;
  (match Session.finish s2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "finish after close accepted");
  (match Session.create ~budget_bytes:0 prog with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero budget accepted");
  match
    Session.create
      ~options:{ (options ~domains:1) with Analyzer.batching = Threadfuser.Batching.Strided }
      prog
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-sequential batching accepted"

let () =
  Alcotest.run "session"
    [
      ( "byte-identity",
        [
          Alcotest.test_case "identical to batch" `Slow test_identical_to_batch;
          QCheck_alcotest.to_alcotest test_random_chunking;
          Alcotest.test_case "quarantine parity" `Quick test_quarantine_parity;
        ] );
      ( "bounded memory",
        [
          Alcotest.test_case "budget respected" `Quick test_bounded_memory;
          Alcotest.test_case "decoded bytes bound spool and batches" `Quick
            test_decoded_budget;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "corrupt mid-stream" `Quick test_corrupt_midstream;
          Alcotest.test_case "damaged spill file fails typed" `Quick
            test_damaged_spill;
          Alcotest.test_case "lifecycle edges" `Quick test_lifecycle;
        ] );
    ]
