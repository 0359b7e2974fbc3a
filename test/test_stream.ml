(* The incremental TFPACK1 reader: any chunking decodes to the same
   threads as [Pack.decode], and hostile input (truncation, bit flips,
   oversized blocks, lying counts, trailing bytes) can only ever produce
   [Corrupt] — never an exception or an unbounded allocation. *)

module Stream = Threadfuser_trace.Stream
module Pack = Threadfuser_trace.Pack
module Thread_trace = Threadfuser_trace.Thread_trace
module Event = Threadfuser_trace.Event
module Validate = Threadfuser_trace.Validate
module Crc32 = Threadfuser_util.Crc32
module Tf_error = Threadfuser_util.Tf_error
module Injector = Threadfuser_fault.Injector
module W = Threadfuser_workloads.Workload
module Registry = Threadfuser_workloads.Registry

let sample_traces =
  [|
    Thread_trace.of_events 0
        [|
          Event.Block
            {
              func = 0;
              block = 0;
              n_instr = 3;
              accesses =
                [| { Event.ioff = 1; addr = 0x100; size = 8; is_store = false } |];
            };
          Event.Call 1;
          Event.Lock_acq 0x40;
          Event.Lock_rel 0x40;
          Event.Return;
          Event.Barrier 0x7000;
          Event.Skip { reason = Event.Io; n_instr = 12 };
          Event.Return;
        |];
    Thread_trace.of_events 1 [||];
    Thread_trace.of_events 7
      [| Event.Block { func = 2; block = 5; n_instr = 1; accesses = [||] } |];
  |]

let is_infix ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let check_traces msg expected (actual : Thread_trace.t array) =
  Alcotest.(check int) (msg ^ ": count") (Array.length expected) (Array.length actual);
  Array.iteri
    (fun i (t : Thread_trace.t) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: trace %d" msg i)
        true
        (t = actual.(i)))
    expected

(* Drain a decoder into threads; [End_of_stream], [Need_more] and
   [Corrupt] stop. *)
let drain dec =
  let acc = ref [] in
  let rec go () =
    match Stream.next dec with
    | Stream.Thread tr ->
        acc := tr :: !acc;
        go ()
    | s -> (Array.of_list (List.rev !acc), s)
  in
  go ()

(* Feed [s] cut at [sizes] (cycled; 0 feeds nothing), draining after
   every chunk: all threads yielded and the last step. *)
let feed_chunked ?(dec = Stream.create ()) s sizes =
  let sizes = Array.of_list sizes in
  let got = ref [] and fin = ref Stream.Need_more in
  let pos = ref 0 and i = ref 0 in
  let step () =
    let frames, f = drain dec in
    got := List.rev_append (Array.to_list frames) !got;
    fin := f
  in
  step ();
  while !pos < String.length s do
    let n = min sizes.(!i mod Array.length sizes) (String.length s - !pos) in
    Stream.feed dec ~off:!pos ~len:n s;
    step ();
    pos := !pos + n;
    incr i
  done;
  (Array.of_list (List.rev !got), !fin)

(* Chunk sizes from a seeded generator, 1..[max]. *)
let random_chunks st ~max = List.init 16 (fun _ -> 1 + Random.State.int st max)

let test_roundtrip () =
  let s = Pack.encode sample_traces in
  let traces, fin = feed_chunked s [ String.length s ] in
  Alcotest.(check bool) "stream ends" true (fin = Stream.End_of_stream);
  check_traces "whole-buffer read" sample_traces traces;
  check_traces "same as Pack.decode" (Pack.decode s) traces

(* Feeding the same stream under any chunking — byte-at-a-time included —
   yields the same threads, each as soon as its block is complete. *)
let test_chunking_invariant () =
  let s = Pack.encode sample_traces in
  List.iter
    (fun sizes ->
      let dec = Stream.create () in
      let traces, fin = feed_chunked ~dec s sizes in
      Alcotest.(check bool) "chunked read ends" true (fin = Stream.End_of_stream);
      check_traces "chunked = whole" sample_traces traces;
      Alcotest.(check int) "all bytes fed" (String.length s) (Stream.bytes_fed dec))
    [
      [ String.length s ];
      [ 1 ];
      [ 3; 1; 10; 2; 1000 ];
      [ 0; 5; 0; 7; 100; 4 ];
    ];
  (* threads arrive incrementally, not only at the end *)
  let dec = Stream.create () in
  let got = ref 0 in
  String.iter
    (fun c ->
      Stream.feed dec (String.make 1 c);
      let frames, _ = drain dec in
      got := !got + Array.length frames)
    s;
  Alcotest.(check int) "byte-at-a-time total threads"
    (Array.length sample_traces) !got

(* Every prefix of a valid stream: [Need_more] (or clean threads), never
   an exception, never [Corrupt] — truncation is indistinguishable from a
   slow sender until the bytes contradict the format.  [Pack.decode]
   refuses every prefix. *)
let test_truncation_sweep () =
  let s = Pack.encode sample_traces in
  for cut = 0 to String.length s - 1 do
    let dec = Stream.create () in
    Stream.feed dec ~len:cut s;
    let _, fin = drain dec in
    (match fin with
    | Stream.Need_more -> ()
    | Stream.End_of_stream ->
        Alcotest.failf "cut at %d claimed a complete stream" cut
    | Stream.Corrupt d ->
        Alcotest.failf "cut at %d: corrupt instead of Need_more: %a" cut
          Tf_error.pp d
    | Stream.Thread _ -> assert false);
    match Pack.decode (String.sub s 0 cut) with
    | _ -> Alcotest.failf "Pack.decode accepted a %d-byte prefix" cut
    | exception Pack.Corrupt _ -> ()
  done

(* (payload offset, payload length) of every block of a TFPACK1 file. *)
let blocks s =
  let r = Pack.reader ~pos:(String.length Pack.magic) s in
  let n = Pack.read_uint r in
  List.init n (fun _ ->
      ignore (Pack.read_uint r : int);
      let len = Pack.read_uint r in
      let off = r.Pack.pos in
      r.Pack.pos <- off + len + 4;
      (off, len))

(* Every single-bit flip inside a block's payload or its CRC trailer is
   [Corrupt], fed byte-at-a-time and at random chunkings: the CRC guards
   every byte the wire carries after a block's header. *)
let test_bitflip_sweep () =
  let s = Pack.encode sample_traces in
  let st = Random.State.make [| 24 |] in
  List.iter
    (fun (off, len) ->
      for i = off to off + len + 3 do
        for bit = 0 to 7 do
          let b = Bytes.of_string s in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
          let flipped = Bytes.unsafe_to_string b in
          List.iter
            (fun sizes ->
              match feed_chunked flipped sizes with
              | _, Stream.Corrupt _ -> ()
              | _, _ -> Alcotest.failf "flip %d.%d was not Corrupt" i bit
              | exception e ->
                  Alcotest.failf "flip %d.%d escaped as %s" i bit
                    (Printexc.to_string e))
            [ [ 1 ]; random_chunks st ~max:8; random_chunks st ~max:64 ]
        done
      done)
    (blocks s)

(* Over damaged bytes of real workload traces, at random chunkings, the
   reader yields exactly [Pack.decode]'s threads, or fails (corrupt, or
   still waiting for bytes when the input ends) exactly when
   [Pack.decode] raises. *)
let differential_inputs =
  lazy
    (Array.of_list
       (List.map
          (fun name -> Pack.encode (W.trace_cpu ~threads:8 (Registry.find name)).W.traces)
          [ "vectoradd"; "bfs"; "mcrouter-memcached"; "hdsearch-mid" ]))

let prop_matches_pack_decode =
  QCheck.Test.make ~name:"reader = Pack.decode on damaged workload bytes"
    ~count:300
    QCheck.(
      triple (int_range 0 3) small_nat
        (list_of_size Gen.(1 -- 6) (int_range 0 4096)))
    (fun (w, seed, chunks) ->
      let bytes = (Lazy.force differential_inputs).(w) in
      let damaged, _ = Injector.corrupt_bytes ~seed bytes in
      let chunks = if List.exists (fun n -> n > 0) chunks then chunks else [ 1 ] in
      let expect =
        match Pack.decode damaged with
        | t -> Some t
        | exception Pack.Corrupt _ -> None
      in
      let got =
        match feed_chunked damaged chunks with
        | t, Stream.End_of_stream -> Some t
        | _, (Stream.Corrupt _ | Stream.Need_more) -> None
        | _, Stream.Thread _ -> assert false
      in
      got = expect)

let test_oversized_frame () =
  let big =
    Thread_trace.of_events 3
      (Array.init 4096 (fun i ->
           Event.Block { func = 0; block = i; n_instr = 1; accesses = [||] }))
  in
  let s = Pack.encode [| big |] in
  let dec = Stream.create ~max_block_bytes:256 () in
  (* only the header needs to arrive: the bound rejects the block before
     the payload is buffered *)
  Stream.feed dec ~len:16 s;
  let _, fin = drain dec in
  (match fin with
  | Stream.Corrupt d ->
      Alcotest.(check bool) "names the bound" true
        (is_infix ~affix:"256-byte bound" (Format.asprintf "%a" Tf_error.pp d))
  | _ -> Alcotest.fail "oversized block accepted from its header");
  (* sticky: feeding the rest does not resurrect the decoder *)
  Stream.feed dec ~off:16 s;
  match Stream.next dec with
  | Stream.Corrupt _ -> ()
  | _ -> Alcotest.fail "corruption was not sticky"

(* The header's count is only a countdown: a count above the blocks sent
   (even [max_int]) just waits for more, allocating nothing from it; a
   count below them leaves bytes after the last block, which are
   corrupt. *)
let test_lying_count () =
  let s = Pack.encode sample_traces in
  let body = String.sub s (String.length Pack.magic + 1) (String.length s - String.length Pack.magic - 1) in
  let with_count n =
    let b = Buffer.create (String.length s + 9) in
    Buffer.add_string b Pack.magic;
    Pack.write_uint b n;
    Buffer.add_string b body;
    Buffer.contents b
  in
  List.iter
    (fun n ->
      let traces, fin = feed_chunked (with_count n) [ 1; 5; 64 ] in
      check_traces (Printf.sprintf "count %d" n) sample_traces traces;
      Alcotest.(check bool)
        (Printf.sprintf "count %d waits for more" n)
        true (fin = Stream.Need_more))
    [ 4; 200; max_int ];
  let traces, fin = feed_chunked (with_count 2) [ 1 ] in
  Alcotest.(check int) "two threads before the surplus" 2 (Array.length traces);
  (match fin with
  | Stream.Corrupt d ->
      Alcotest.(check bool) "names the trailing bytes" true
        (is_infix ~affix:"after the last pack block" d.Tf_error.message)
  | _ -> Alcotest.fail "a block beyond the count was accepted");
  let _, fin = feed_chunked (with_count (-1)) [ 3 ] in
  Alcotest.(check bool) "negative count corrupt" true
    (match fin with Stream.Corrupt _ -> true | _ -> false)

let test_trailing_bytes () =
  let s = Pack.encode sample_traces ^ "x" in
  match feed_chunked s [ 7 ] with
  | traces, Stream.Corrupt d ->
      check_traces "every block before the byte" sample_traces traces;
      Alcotest.(check bool) "typed trailing-byte error" true
        (d.Tf_error.kind = Tf_error.Corrupt_input)
  | _ -> Alcotest.fail "trailing byte accepted"

(* [off + len] wraps negative for [len = max_int]: a naive bound passes it
   and the capacity-doubling loop never ends.  Every bad substring must be
   refused up front, with nothing buffered. *)
let test_feed_bounds () =
  let dec = Stream.create () in
  List.iter
    (fun (off, len) ->
      Alcotest.check_raises
        (Printf.sprintf "feed off %d len %d" off len)
        (Invalid_argument "Stream.feed: bad substring")
        (fun () -> Stream.feed dec ~off ~len "abc"))
    [ (1, max_int); (max_int, 1); (-1, 1); (0, -1); (0, 4); (4, 0) ];
  Alcotest.check_raises "feed off past the end"
    (Invalid_argument "Stream.feed: bad substring")
    (fun () -> Stream.feed dec ~off:4 "abc");
  Alcotest.(check int) "nothing buffered" 0 (Stream.buffered dec);
  Alcotest.(check int) "nothing fed" 0 (Stream.bytes_fed dec)

(* A block decodes in place, bounded to itself: a payload ending in a
   varint with its continuation bit set is truncated at the payload's
   end, even though the CRC trailer follows it in the buffer. *)
let test_frame_bounded () =
  let payload = "\x01\x01\x80" (* 1 event, Call, dangling varint *) in
  let b = Buffer.create 32 in
  Buffer.add_string b Pack.magic;
  Pack.write_uint b 1;
  Pack.write_uint b 0;
  Pack.write_uint b (String.length payload);
  Buffer.add_string b payload;
  Crc32.add_le b (Crc32.string payload);
  match feed_chunked (Buffer.contents b) [ 1 ] with
  | _, Stream.Corrupt d ->
      Alcotest.(check string) "truncated at the payload end" "truncated"
        d.Tf_error.message
  | _ -> Alcotest.fail "dangling varint accepted"

let test_bad_magic () =
  match feed_chunked ("XXPACK1" ^ "\x00") [ 2 ] with
  | _, Stream.Corrupt _ -> ()
  | _ -> Alcotest.fail "bad magic accepted"

(* Zero-length inputs: every entry point degrades, none throws. *)
let test_zero_length () =
  let dec = Stream.create () in
  Alcotest.(check bool) "empty decoder wants input" true (Stream.next dec = Stream.Need_more);
  Stream.feed dec "";
  Alcotest.(check bool) "empty feed is a no-op" true (Stream.next dec = Stream.Need_more);
  (match Pack.decode "" with
  | exception Pack.Corrupt _ -> ()
  | exception Tf_error.Error _ -> ()
  | _ -> Alcotest.fail "the trace loader accepted empty input");
  Alcotest.(check int) "Validate.all on zero traces" 0
    (List.length (Validate.all [||]));
  let empty = Thread_trace.of_events 0 [||] in
  Alcotest.(check int) "empty trace validates clean" 0
    (List.length (Validate.thread empty));
  match feed_chunked (Pack.encode [| empty |]) [ 1 ] with
  | [| t |], Stream.End_of_stream ->
      Alcotest.(check bool) "empty trace round-trips" true (t = empty)
  | _ -> Alcotest.fail "empty-trace stream failed"

(* The end of a stream is its count reaching zero: a zero count split
   from the magic, and bytes after it. *)
let test_end_edges () =
  let s = Pack.encode [||] in
  let dec = Stream.create () in
  Stream.feed dec ~len:(String.length s - 1) s;
  let frames, fin = drain dec in
  Alcotest.(check int) "no threads" 0 (Array.length frames);
  Alcotest.(check bool) "before the count: Need_more" true (fin = Stream.Need_more);
  Stream.feed dec ~off:(String.length s - 1) s;
  Alcotest.(check bool) "end reached" true (Stream.next dec = Stream.End_of_stream);
  Alcotest.(check bool) "end is repeatable" true (Stream.next dec = Stream.End_of_stream);
  Stream.feed dec "z";
  match Stream.next dec with
  | Stream.Corrupt _ -> ()
  | _ -> Alcotest.fail "bytes after end-of-stream accepted"

(* Without a header (a session's spill file) blocks follow one another
   with no count, so the sequence never ends by itself. *)
let test_headerless () =
  let b = Buffer.create 256 in
  Array.iter (Pack.add_block b) sample_traces;
  let traces, fin =
    feed_chunked ~dec:(Stream.create ~header:false ()) (Buffer.contents b) [ 3 ]
  in
  check_traces "bare blocks" sample_traces traces;
  Alcotest.(check bool) "waits for more" true (fin = Stream.Need_more)

let () =
  Alcotest.run "stream"
    [
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "chunking invariant" `Quick test_chunking_invariant;
          Alcotest.test_case "end of stream edges" `Quick test_end_edges;
          Alcotest.test_case "zero-length inputs" `Quick test_zero_length;
          Alcotest.test_case "headerless block sequence" `Quick test_headerless;
        ] );
      ( "hostile",
        [
          Alcotest.test_case "truncation sweep" `Quick test_truncation_sweep;
          Alcotest.test_case "bit-flip sweep" `Slow test_bitflip_sweep;
          QCheck_alcotest.to_alcotest prop_matches_pack_decode;
          Alcotest.test_case "oversized frame" `Quick test_oversized_frame;
          Alcotest.test_case "lying header count" `Quick test_lying_count;
          Alcotest.test_case "trailing bytes" `Quick test_trailing_bytes;
          Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "feed bounds cannot overflow" `Quick
            test_feed_bounds;
          Alcotest.test_case "frame decodes bounded to itself" `Quick
            test_frame_bounded;
        ] );
    ]
