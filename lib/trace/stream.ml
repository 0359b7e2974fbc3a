(** Chunked streaming serialization (see stream.mli).

    Wire format: the magic, then frames.  A frame is a varint tag —

    {v
      0 Thread  payload_len:varint payload(tid:varint n_events:varint events)
      1 End     (no payload)
    v}

    — with the payload encoded by {!Serial}'s event codec.  The explicit
    payload length lets the decoder (a) reject oversized frames from the
    header alone and (b) hand the payload to {!Serial}'s bounded readers,
    whose count checks are all relative to the frame, not the stream. *)

module Tf_error = Threadfuser_util.Tf_error

let magic = "TFSTREAM1"

let tag_thread = 0
let tag_end = 1

(* -- encoding ----------------------------------------------------------- *)

let add_thread buf (t : Thread_trace.t) =
  let payload = Buffer.create 256 in
  Serial.write_uint payload t.Thread_trace.tid;
  Serial.write_uint payload (Thread_trace.length t);
  for i = 0 to Thread_trace.length t - 1 do
    Serial.write_event payload t i
  done;
  Serial.write_uint buf tag_thread;
  Serial.write_uint buf (Buffer.length payload);
  Buffer.add_buffer buf payload

let encode traces =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Array.iter (add_thread buf) traces;
  Serial.write_uint buf tag_end;
  Buffer.contents buf

(* -- incremental decoding ----------------------------------------------- *)

type status =
  | Expect_magic
  | Frames
  | Done
  | Failed of Tf_error.diagnostic (* sticky *)

type t = {
  mutable buf : Bytes.t; (* reassembly buffer *)
  mutable len : int; (* valid bytes in [buf] *)
  mutable pos : int; (* consumed prefix *)
  mutable state : status;
  max_frame : int;
  mutable fed : int;
}

let create ?(max_frame_bytes = 16 * 1024 * 1024) ?(expect_magic = true) () =
  if max_frame_bytes <= 0 then
    invalid_arg "Stream.create: max_frame_bytes must be positive";
  {
    buf = Bytes.create 4096;
    len = 0;
    pos = 0;
    state = (if expect_magic then Expect_magic else Frames);
    max_frame = max_frame_bytes;
    fed = 0;
  }

let buffered t = t.len - t.pos
let bytes_fed t = t.fed

let feed t ?(off = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - off in
  (* [off + len] could wrap negative for a huge [len]: compare on the
     side that cannot *)
  if off < 0 || len < 0 || len > String.length s - off then
    invalid_arg "Stream.feed: bad substring";
  (* compact the consumed prefix before growing: the buffer stays bounded
     by one frame plus one chunk *)
  if t.pos > 0 && (t.pos = t.len || t.pos >= 4096) then begin
    Bytes.blit t.buf t.pos t.buf 0 (t.len - t.pos);
    t.len <- t.len - t.pos;
    t.pos <- 0
  end;
  if t.len + len > Bytes.length t.buf then begin
    let cap = ref (max 4096 (2 * Bytes.length t.buf)) in
    while t.len + len > !cap do
      cap := 2 * !cap
    done;
    let bigger = Bytes.create !cap in
    Bytes.blit t.buf 0 bigger 0 t.len;
    t.buf <- bigger
  end;
  Bytes.blit_string s off t.buf t.len len;
  t.len <- t.len + len;
  t.fed <- t.fed + len

type step =
  | Need_more
  | Frame of Thread_trace.t
  | End_of_stream
  | Corrupt of Tf_error.diagnostic

(* Raised internally when the buffered bytes end mid-item. *)
exception Short

exception Bad of string

(* Varint over the reassembly buffer, with [Serial.read_uint]'s overlong
   bound but [Short] instead of "truncated" (more input may still fix it). *)
let read_uint_b t p =
  let shift = ref 0 and acc = ref 0 and more = ref true in
  while !more do
    if !p >= t.len then raise Short;
    let b = Char.code (Bytes.get t.buf !p) in
    incr p;
    if !shift >= 63 then raise (Bad "overlong varint");
    acc := !acc lor ((b land 0x7f) lsl !shift);
    if b land 0x80 = 0 then more := false else shift := !shift + 7
  done;
  !acc

let fail t fmt =
  Format.kasprintf
    (fun m ->
      let d = Tf_error.diag Tf_error.Corrupt_input "%s" m in
      t.state <- Failed d;
      Corrupt d)
    fmt

(* Decode one thread payload (already fully buffered) in place: the reader
   is bounded to the frame, so all of [Serial]'s checks apply relative to
   it and a lying event count is caught against the frame length.  The
   string view of [buf] is safe: nothing writes [buf] while the frame
   decodes, and the view does not outlive this call. *)
let decode_thread t ~payload_off ~payload_len =
  let lim = payload_off + payload_len in
  let r =
    Serial.reader ~pos:payload_off ~lim (Bytes.unsafe_to_string t.buf)
  in
  let tid = Serial.read_uint r in
  if tid < 0 then raise (Serial.Corrupt "negative thread id");
  let n_events = Serial.read_count r ~min_bytes:1 "event" in
  let trace = Serial.read_events r ~tid n_events in
  if r.pos <> lim then
    raise
      (Serial.Corrupt
         (Printf.sprintf "thread frame has %d trailing byte(s)" (lim - r.pos)));
  trace

let rec next t =
  match t.state with
  | Failed d -> Corrupt d
  | Done ->
      if t.pos < t.len then
        fail t "%d byte(s) after the end-of-stream frame" (t.len - t.pos)
      else End_of_stream
  | Expect_magic ->
      let n = String.length magic in
      if t.len - t.pos < n then Need_more
      else if Bytes.sub_string t.buf t.pos n <> magic then fail t "bad magic"
      else begin
        t.pos <- t.pos + n;
        t.state <- Frames;
        next t
      end
  | Frames -> (
      let p = ref t.pos in
      match
        let tag = read_uint_b t p in
        if tag = tag_end then `End !p
        else if tag <> tag_thread then raise (Bad (Printf.sprintf "bad frame tag %d" tag))
        else begin
          let payload_len = read_uint_b t p in
          (* bound first: an oversized declaration must fail before the
             decoder waits for (or buffers) the payload *)
          if payload_len < 0 || payload_len > t.max_frame then
            raise
              (Bad
                 (Printf.sprintf "frame of %d bytes exceeds the %d-byte bound"
                    payload_len t.max_frame));
          if t.len - !p < payload_len then raise Short;
          let trace = decode_thread t ~payload_off:!p ~payload_len in
          `Thread (!p + payload_len, trace)
        end
      with
      | `End pos ->
          t.pos <- pos;
          t.state <- Done;
          next t
      | `Thread (pos, trace) ->
          t.pos <- pos;
          Frame trace
      | exception Short -> Need_more
      | exception Bad m -> fail t "%s" m
      | exception Serial.Corrupt m -> fail t "%s" m)

let decode s =
  let t = create () in
  feed t s;
  let acc = ref [] in
  let rec go () =
    match next t with
    | Frame tr ->
        acc := tr :: !acc;
        go ()
    | End_of_stream -> Ok (Array.of_list (List.rev !acc))
    | Need_more ->
        Error (Tf_error.diag Tf_error.Corrupt_input "stream truncated mid-frame")
    | Corrupt d -> Error d
  in
  go ()
