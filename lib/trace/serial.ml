(** The varint codec and event codec every trace container shares, plus
    the read-only decoder for legacy TFTRACE1 files.

    TFTRACE1 (all integers LEB128 varints over the two's-complement bit
    pattern): a magic header, a thread count, then per thread the tid, the
    event count and the events.  Event tags:

    {v
      0 Block   func block n_instr n_accesses (ioff addr size is_store)*
      1 Call    func
      2 Return
      3 Lock_acq addr
      4 Lock_rel addr
      5 Skip    reason(0=io,1=spin,2=excluded) n_instr
      6 Barrier addr
    v}

    ThreadFuser no longer writes TFTRACE1 ({!Pack}'s TFPACK1 is the one
    written format); files captured before that still load through
    {!Trace_file}. *)

let magic = "TFTRACE1"

(* -- varint primitives -------------------------------------------------- *)

(* Encodes the two's-complement bit pattern with a logical shift, so every
   OCaml int round-trips (negatives cost 9 bytes; they are rare in traces). *)
let write_uint buf n =
  let n = ref n in
  let continue_ = ref true in
  while !continue_ do
    let b = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue_ := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

type reader = { data : string; mutable pos : int; lim : int }

exception Corrupt of string

(* Plain comparisons and no sums, so no bound can wrap however large
   [pos] or [lim] is; after it, [lim - pos] is the bytes left. *)
let reader ?(pos = 0) ?lim data =
  let lim = match lim with Some l -> l | None -> String.length data in
  if pos < 0 || pos > lim || lim > String.length data then
    invalid_arg "Serial.reader: bad bounds";
  { data; pos; lim }

(* The writer emits at most ceil(63/7) = 9 groups, so a continuation bit
   past shift 56 (i.e. a 10th byte) can only come from corrupt input; the
   bound also keeps [lsl] inside the word size (shifting an OCaml int by
   >= Sys.int_size is undefined).  Every read is bounded by [lim], never
   by the length of [data]: a reader over one block of a larger buffer
   cannot run on into the next. *)
let read_uint_loop r =
  let data = r.data and lim = r.lim in
  let pos = ref r.pos and shift = ref 0 and acc = ref 0 and more = ref true in
  while !more do
    if !pos >= lim then begin
      r.pos <- !pos;
      raise (Corrupt "truncated")
    end;
    let b = Char.code (String.unsafe_get data !pos) in
    incr pos;
    if !shift >= 63 then raise (Corrupt "overlong varint");
    acc := !acc lor ((b land 0x7f) lsl !shift);
    if b land 0x80 = 0 then more := false else shift := !shift + 7
  done;
  r.pos <- !pos;
  !acc

(* Tags and most deltas are one byte: return those before the loop.
   [@inline] reaches only this module's callers (the event codec that
   {!Stream} frames); other modules see an [-opaque] library. *)
let[@inline] read_uint r =
  let pos = r.pos in
  if pos < r.lim then begin
    let b = Char.code (String.unsafe_get r.data pos) in
    if b < 0x80 then begin
      r.pos <- pos + 1;
      b
    end
    else read_uint_loop r
  end
  else read_uint_loop r

(* Length headers are untrusted: a corrupt count must fail as [Corrupt]
   before it reaches [Array.init] (a 5-byte file must not trigger a
   multi-GB allocation or an [Invalid_argument]).  Every counted item
   costs at least [min_bytes] input bytes, so any honest count is bounded
   by the bytes left. *)
let read_count r ~min_bytes what =
  let n = read_uint r in
  if n < 0 then raise (Corrupt (Printf.sprintf "negative %s count" what));
  if n > (r.lim - r.pos) / min_bytes then
    raise
      (Corrupt
         (Printf.sprintf "%s count %d exceeds remaining input (%d bytes)" what
            n (r.lim - r.pos)));
  n

(* -- events ------------------------------------------------------------- *)

(* {!Thread_trace.kind}'s constructor order is the tag numbering. *)
let kinds =
  Thread_trace.[| Block; Call; Return; Lock_acq; Lock_rel; Skip; Barrier |]

let tag_of_kind : Thread_trace.kind -> int = function
  | Thread_trace.Block -> 0
  | Thread_trace.Call -> 1
  | Thread_trace.Return -> 2
  | Thread_trace.Lock_acq -> 3
  | Thread_trace.Lock_rel -> 4
  | Thread_trace.Skip -> 5
  | Thread_trace.Barrier -> 6

(* Event [i] of [t]. *)
let write_event buf (t : Thread_trace.t) i =
  let kind = t.events.(i) and e = 3 * i in
  write_uint buf (tag_of_kind kind);
  match kind with
  | Thread_trace.Block ->
      write_uint buf t.ev.(e);
      write_uint buf t.ev.(e + 1);
      write_uint buf t.n_instr.(i);
      let lo = t.ev.(e + 2) and hi = t.ev.(e + 5) in
      write_uint buf (hi - lo);
      for j = lo to hi - 1 do
        write_uint buf t.acc.(3 * j);
        write_uint buf t.acc.((3 * j) + 1);
        write_uint buf t.acc.((3 * j) + 2);
        write_uint buf (if Thread_trace.is_store t j then 1 else 0)
      done
  | Thread_trace.Call | Thread_trace.Lock_acq | Thread_trace.Lock_rel
  | Thread_trace.Barrier ->
      write_uint buf t.ev.(e)
  | Thread_trace.Return -> ()
  | Thread_trace.Skip ->
      write_uint buf t.ev.(e);
      write_uint buf t.n_instr.(i)

let read_skip_code r =
  let c = read_uint r in
  if not (Thread_trace.is_skip_code c) then
    raise (Corrupt (Printf.sprintf "bad skip reason %d" c));
  c

let read_event r b =
  let module B = Thread_trace.Builder in
  let tag = read_uint r in
  if tag < 0 || tag >= Array.length kinds then
    raise (Corrupt (Printf.sprintf "bad event tag %d" tag));
  match kinds.(tag) with
  | Thread_trace.Block ->
      let func = read_uint r in
      let block = read_uint r in
      let n_instr = read_uint r in
      (* an access is at least 4 varint bytes (ioff addr size is_store) *)
      let n_acc = read_count r ~min_bytes:4 "access" in
      for _ = 1 to n_acc do
        let ioff = read_uint r in
        let addr = read_uint r in
        let size = read_uint r in
        let is_store = read_uint r = 1 in
        B.access b ~ioff ~addr ~size ~is_store
      done;
      B.block b ~func ~block ~n_instr ~n_acc
  | Thread_trace.Call -> B.call b (read_uint r)
  | Thread_trace.Return -> B.return b
  | Thread_trace.Lock_acq -> B.lock_acq b (read_uint r)
  | Thread_trace.Lock_rel -> B.lock_rel b (read_uint r)
  | Thread_trace.Skip ->
      let code = read_skip_code r in
      B.skip b code (read_uint r)
  | Thread_trace.Barrier -> B.barrier b (read_uint r)

(* [n_events] events into a fresh trace of thread [tid]. *)
let read_events r ~tid n_events =
  let b = Thread_trace.Builder.create ~events:n_events tid in
  for _ = 1 to n_events do
    read_event r b
  done;
  Thread_trace.Builder.finish b

(* -- legacy whole traces ------------------------------------------------ *)

let of_string s : Thread_trace.t array =
  let n_magic = String.length magic in
  if String.length s < n_magic || String.sub s 0 n_magic <> magic then
    raise (Corrupt "bad magic");
  let r = reader ~pos:n_magic s in
  (* a thread costs at least 2 bytes (tid + event count) *)
  let n_threads = read_count r ~min_bytes:2 "thread" in
  Array.init n_threads (fun _ ->
      let tid = read_uint r in
      if tid < 0 then raise (Corrupt "negative thread id");
      (* an event is at least 1 byte (its tag) *)
      let n_events = read_count r ~min_bytes:1 "event" in
      read_events r ~tid n_events)
