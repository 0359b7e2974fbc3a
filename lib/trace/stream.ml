(** Incremental TFPACK1 reader (see stream.mli).

    The input is {!Pack}'s container: the magic, a varint thread count,
    then blocks of [tid:varint payload_len:varint payload crc32:4B-LE].
    The reader parses a block's header itself, because here a header cut
    short means "feed more", not "corrupt"; once the whole block is
    buffered, {!Pack.decode_block} checks its CRC and decodes it in
    place. *)

module Tf_error = Threadfuser_util.Tf_error

let encode = Pack.encode

type status =
  | Magic
  | Count
  | Blocks
  | Failed of Tf_error.diagnostic (* sticky *)

type t = {
  mutable buf : Bytes.t; (* reassembly buffer *)
  mutable len : int; (* valid bytes in [buf] *)
  mutable pos : int; (* consumed prefix *)
  mutable state : status;
  mutable left : int;
      (* blocks still due: the header's count, counted down, or -1 for a
         headerless sequence; nothing is ever sized from it *)
  max_block : int;
  mutable fed : int;
}

let create ?(max_block_bytes = 16 * 1024 * 1024) ?(header = true) () =
  if max_block_bytes <= 0 then
    invalid_arg "Stream.create: max_block_bytes must be positive";
  {
    buf = Bytes.create 4096;
    len = 0;
    pos = 0;
    state = (if header then Magic else Blocks);
    left = -1;
    max_block = max_block_bytes;
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
     by one block plus one chunk *)
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
  | Thread of Thread_trace.t
  | End_of_stream
  | Corrupt of Tf_error.diagnostic

(* Raised internally when the buffered bytes end mid-item. *)
exception Short

(* Varint over the reassembly buffer, with [Pack.read_uint]'s overlong
   bound but [Short] instead of "truncated" (more input may still fix it). *)
let read_uint_b t p =
  let shift = ref 0 and acc = ref 0 and more = ref true in
  while !more do
    if !p >= t.len then raise Short;
    let b = Char.code (Bytes.get t.buf !p) in
    incr p;
    if !shift >= 63 then raise (Pack.Corrupt "overlong varint");
    acc := !acc lor ((b land 0x7f) lsl !shift);
    if b land 0x80 = 0 then more := false else shift := !shift + 7
  done;
  !acc

let fail t m =
  let d = Tf_error.diag Tf_error.Corrupt_input "%s" m in
  t.state <- Failed d;
  Corrupt d

(* The block at [t.pos], once all of it is buffered.  Its declared
   length is bounded before the reader waits for (or buffers) the
   payload.  The string view of [buf] is safe: nothing writes [buf] while
   the block decodes, and the view does not outlive this call. *)
let read_block t =
  let p = ref t.pos in
  let tid = read_uint_b t p in
  let payload_len = read_uint_b t p in
  if payload_len < 0 || payload_len > t.max_block then
    raise
      (Pack.Corrupt
         (Printf.sprintf "block of %d bytes exceeds the %d-byte bound"
            payload_len t.max_block));
  if t.len - !p - 4 < payload_len then raise Short;
  let lim = !p + payload_len in
  let trace =
    Pack.decode_block ~tid (Bytes.unsafe_to_string t.buf) ~pos:!p ~lim
  in
  t.pos <- lim + 4;
  trace

let rec next t =
  match t.state with
  | Failed d -> Corrupt d
  | Magic ->
      let n = String.length Pack.magic in
      if t.len - t.pos < n then Need_more
      else if Bytes.sub_string t.buf t.pos n <> Pack.magic then
        fail t "bad pack magic"
      else begin
        t.pos <- t.pos + n;
        t.state <- Count;
        next t
      end
  | Count -> (
      let p = ref t.pos in
      match read_uint_b t p with
      | n when n < 0 -> fail t "negative thread count"
      | n ->
          t.pos <- !p;
          t.left <- n;
          t.state <- Blocks;
          next t
      | exception Short -> Need_more
      | exception Pack.Corrupt m -> fail t m)
  | Blocks when t.left = 0 ->
      if t.pos < t.len then
        fail t
          (Printf.sprintf "%d byte(s) after the last pack block"
             (t.len - t.pos))
      else End_of_stream
  | Blocks -> (
      match read_block t with
      | trace ->
          if t.left > 0 then t.left <- t.left - 1;
          Thread trace
      | exception Short -> Need_more
      | exception Pack.Corrupt m -> fail t m)
