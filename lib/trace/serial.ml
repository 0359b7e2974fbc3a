(** The LEB128 varint codec (over the two's-complement bit pattern) and
    the event tags of the TFPACK1 container ({!Pack}):

    {v
      0 Block  1 Call  2 Return  3 Lock_acq  4 Lock_rel  5 Skip  6 Barrier
    v}

    A skip reason is coded 0 io, 1 spin, 2 excluded. *)

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
let read_uint r =
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

let read_skip_code r =
  let c = read_uint r in
  if not (Thread_trace.is_skip_code c) then
    raise (Corrupt (Printf.sprintf "bad skip reason %d" c));
  c
