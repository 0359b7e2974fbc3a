(* The chunked streaming codec: any chunking decodes to the same frames,
   and hostile input (truncation, bit flips, oversized or trailing
   frames) can only ever produce [Corrupt] — never an exception or an
   unbounded allocation. *)

module Stream = Threadfuser_trace.Stream
module Serial = Threadfuser_trace.Serial
module Thread_trace = Threadfuser_trace.Thread_trace
module Event = Threadfuser_trace.Event
module Validate = Threadfuser_trace.Validate
module Trace_file = Threadfuser_trace.Trace_file
module Tf_error = Threadfuser_util.Tf_error

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

(* Drain a decoder into frames; [End_of_stream] and [Need_more] stop. *)
let drain dec =
  let acc = ref [] in
  let rec go () =
    match Stream.next dec with
    | Stream.Frame tr ->
        acc := tr :: !acc;
        go ()
    | s -> (Array.of_list (List.rev !acc), s)
  in
  go ()

let test_roundtrip () =
  match Stream.decode (Stream.encode sample_traces) with
  | Ok traces -> check_traces "one-shot decode" sample_traces traces
  | Error d -> Alcotest.failf "roundtrip failed: %a" Tf_error.pp d

(* Feeding the same stream under any chunking — byte-at-a-time included —
   yields the same frames. *)
let test_chunking_invariant () =
  let s = Stream.encode sample_traces in
  let feed_chunks sizes =
    let dec = Stream.create () in
    let pos = ref 0 in
    List.iter
      (fun n ->
        let n = min n (String.length s - !pos) in
        Stream.feed dec ~off:!pos ~len:n s;
        ignore (drain dec);
        pos := !pos + n)
      sizes;
    if !pos < String.length s then
      Stream.feed dec ~off:!pos ~len:(String.length s - !pos) s;
    dec
  in
  List.iter
    (fun sizes ->
      let dec = feed_chunks sizes in
      (* re-drain from scratch state: collect everything left *)
      let dec2 = Stream.create () in
      Stream.feed dec2 s;
      let all2, fin2 = drain dec2 in
      Alcotest.(check bool) "whole-stream drain ends" true (fin2 = Stream.End_of_stream);
      check_traces "chunked = whole" sample_traces all2;
      Alcotest.(check int) "all bytes fed" (String.length s) (Stream.bytes_fed dec))
    [
      [ String.length s ];
      List.init (String.length s) (fun _ -> 1);
      [ 3; 1; 10; 2; 1000 ];
      [ 0; 5; 0; 7; 100; 4 ];
    ];
  (* frames arrive incrementally, not only at the end *)
  let dec = Stream.create () in
  let got = ref 0 in
  String.iteri
    (fun i c ->
      ignore i;
      Stream.feed dec (String.make 1 c);
      let frames, _ = drain dec in
      got := !got + Array.length frames)
    s;
  Alcotest.(check int) "byte-at-a-time total frames" (Array.length sample_traces) !got

(* Every prefix of a valid stream: [Need_more] (or clean frames), never an
   exception, never [Corrupt] — truncation is indistinguishable from a
   slow sender until the bytes contradict the format. *)
let test_truncation_sweep () =
  let s = Stream.encode sample_traces in
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
    | Stream.Frame _ -> assert false);
    (* the one-shot helper reports truncation as a typed error *)
    match Stream.decode (String.sub s 0 cut) with
    | Ok _ -> Alcotest.failf "decode accepted a %d-byte prefix" cut
    | Error _ -> ()
  done

(* Single bit flips decode to frames or typed corruption, never an
   exception.  (A flip may legally decode: payload bytes are opaque.) *)
let test_bitflip_sweep () =
  let s = Stream.encode sample_traces in
  for i = 0 to String.length s - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      match Stream.decode (Bytes.unsafe_to_string b) with
      | Ok _ | Error _ -> ()
      | exception e ->
          Alcotest.failf "flip %d.%d escaped as %s" i bit (Printexc.to_string e)
    done
  done

let test_oversized_frame () =
  let big =
    Thread_trace.of_events 3
      (Array.init 4096 (fun i ->
           Event.Block { func = 0; block = i; n_instr = 1; accesses = [||] }))
  in
  let buf = Buffer.create 64 in
  Buffer.add_string buf Stream.magic;
  Stream.add_thread buf big;
  let s = Buffer.contents buf in
  let dec = Stream.create ~max_frame_bytes:256 () in
  (* only the header needs to arrive: the bound rejects the frame before
     the payload is buffered *)
  Stream.feed dec ~len:(min 16 (String.length s)) s;
  let _, fin = drain dec in
  (match fin with
  | Stream.Corrupt d ->
      Alcotest.(check bool) "names the bound" true
        (is_infix ~affix:"256-byte bound" (Format.asprintf "%a" Tf_error.pp d))
  | _ -> Alcotest.fail "oversized frame accepted from its header");
  (* sticky: feeding the rest does not resurrect the decoder *)
  Stream.feed dec ~off:16 s;
  match Stream.next dec with
  | Stream.Corrupt _ -> ()
  | _ -> Alcotest.fail "corruption was not sticky"

let test_trailing_bytes () =
  let s = Stream.encode sample_traces ^ "x" in
  match Stream.decode s with
  | Ok _ -> Alcotest.fail "trailing byte accepted"
  | Error d ->
      Alcotest.(check bool) "typed trailing-byte error" true
        (d.Tf_error.kind = Tf_error.Corrupt_input)

let test_bad_magic () =
  match Stream.decode ("XXSTREAM1" ^ String.sub (Stream.encode [||]) 9 1) with
  | Ok _ -> Alcotest.fail "bad magic accepted"
  | Error _ -> ()

(* Zero-length inputs: every entry point degrades, none throws. *)
let test_zero_length () =
  (match Stream.decode "" with
  | Ok _ -> Alcotest.fail "empty string is not a stream"
  | Error _ -> ());
  let dec = Stream.create () in
  Alcotest.(check bool) "empty decoder wants input" true (Stream.next dec = Stream.Need_more);
  Stream.feed dec "";
  Alcotest.(check bool) "empty feed is a no-op" true (Stream.next dec = Stream.Need_more);
  (match Trace_file.of_string "" with
  | exception Serial.Corrupt _ -> ()
  | exception Tf_error.Error _ -> ()
  | _ -> Alcotest.fail "the trace loader accepted empty input");
  Alcotest.(check int) "Validate.all on zero traces" 0
    (List.length (Validate.all [||]));
  let empty = Thread_trace.of_events 0 [||] in
  Alcotest.(check int) "empty trace validates clean" 0
    (List.length (Validate.thread empty));
  match Stream.decode (Stream.encode [| empty |]) with
  | Ok [| t |] -> Alcotest.(check bool) "empty trace round-trips" true (t = empty)
  | _ -> Alcotest.fail "empty-trace stream failed"

(* An end frame split across chunks, and bytes after it. *)
let test_end_frame_edges () =
  let s = Stream.encode [||] in
  let dec = Stream.create () in
  Stream.feed dec ~len:(String.length s - 1) s;
  let frames, fin = drain dec in
  Alcotest.(check int) "no frames" 0 (Array.length frames);
  Alcotest.(check bool) "mid-end: Need_more" true (fin = Stream.Need_more);
  Stream.feed dec ~off:(String.length s - 1) s;
  Alcotest.(check bool) "end reached" true (Stream.next dec = Stream.End_of_stream);
  Alcotest.(check bool) "end is repeatable" true (Stream.next dec = Stream.End_of_stream);
  Stream.feed dec "z";
  match Stream.next dec with
  | Stream.Corrupt _ -> ()
  | _ -> Alcotest.fail "bytes after end-of-stream accepted"

let () =
  Alcotest.run "stream"
    [
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "chunking invariant" `Quick test_chunking_invariant;
          Alcotest.test_case "end frame edges" `Quick test_end_frame_edges;
          Alcotest.test_case "zero-length inputs" `Quick test_zero_length;
        ] );
      ( "hostile",
        [
          Alcotest.test_case "truncation sweep" `Quick test_truncation_sweep;
          Alcotest.test_case "bit-flip sweep" `Slow test_bitflip_sweep;
          Alcotest.test_case "oversized frame" `Quick test_oversized_frame;
          Alcotest.test_case "trailing bytes" `Quick test_trailing_bytes;
          Alcotest.test_case "bad magic" `Quick test_bad_magic;
        ] );
    ]
