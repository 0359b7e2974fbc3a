(** TFPACK1: compact columnar, delta-encoded binary trace container (see
    pack.mli).

    Wire format (all integers LEB128 varints over the two's-complement bit
    pattern):

    {v
      "TFPACK1" n_threads:varint block*
      block   := tid:varint payload_len:varint payload crc32:4B-LE
      payload := n_events:varint tags[n_events] args-column access-column
    v}

    The tag column is one byte per event:

    {v
      0 Block  1 Call  2 Return  3 Lock_acq  4 Lock_rel  5 Skip  6 Barrier
    v}

    The args column stores, per event in order: Block as zigzag deltas of
    (func, block) against the previous Block plus n_instr and the access
    count; Call as a zigzag delta against the previous Call target; lock
    and barrier addresses as zigzag deltas against the previous sync
    address; Skip as reason (0 io, 1 spin, 2 excluded) and n_instr.  The
    access column stores, for each Block's accesses in order, ioff, a
    zigzag delta of the address against the previous access (the stream
    crosses block boundaries), size, and the store flag.  All predictors
    reset per thread block, so each block decodes independently — which
    is what lets the CRC-32 trailer sit per block.

    The CRC covers the payload only, not the block's [tid] and
    [payload_len] header.

    Hot traces are loops: block ids, lock addresses and access strides
    repeat with small deltas, so the columns varint-pack far better than
    a flat per-event encoding. *)

module Crc32 = Threadfuser_util.Crc32
module Obs = Threadfuser_obs.Obs

let magic = "TFPACK1"

(* -- varint codec ------------------------------------------------------- *)

exception Corrupt of string

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

(* Plain comparisons and no sums, so no bound can wrap however large
   [pos] or [lim] is; after it, [lim - pos] is the bytes left. *)
let reader ?(pos = 0) ?lim data =
  let lim = match lim with Some l -> l | None -> String.length data in
  if pos < 0 || pos > lim || lim > String.length data then
    invalid_arg "Pack.reader: bad bounds";
  { data; pos; lim }

(* Tags aside, most varints in a payload are one byte, so that case comes
   first; at [lim] the sentinel [0x80] sends the read to the loop, which
   raises.  The writer emits at most ceil(63/7) = 9 groups, so a
   continuation bit past shift 56 (i.e. a 10th byte) can only come from
   corrupt input; the bound also keeps [lsl] inside the word size
   (shifting an OCaml int by >= Sys.int_size is undefined).  Every read is
   bounded by [lim], never by the length of [data]: a reader over one
   block of a larger buffer cannot run on into the next. *)
let[@inline] read_uint r =
  let data = r.data and lim = r.lim and pos = r.pos in
  let b0 = if pos < lim then Char.code (String.unsafe_get data pos) else 0x80 in
  if b0 < 0x80 then begin
    r.pos <- pos + 1;
    b0
  end
  else begin
    let pos = ref pos and shift = ref 0 and acc = ref 0 and more = ref true in
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
  end

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

(* -- event tags --------------------------------------------------------- *)

(* {!Thread_trace.kind}'s constructor order is the tag numbering. *)
let kinds =
  Thread_trace.[| Block; Call; Return; Lock_acq; Lock_rel; Skip; Barrier |]

let[@inline] tag_of_kind : Thread_trace.kind -> int = function
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

(* -- zigzag ------------------------------------------------------------- *)

(* Maps small-magnitude deltas of either sign to small non-negative codes:
   0,-1,1,-2,... -> 0,1,2,3,...  [asr (int_size-1)] smears the sign bit, so
   the pair round-trips every OCaml int including [min_int] (whose shifted
   code wraps consistently on both sides). *)
let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))
let unzigzag z = (z lsr 1) lxor (- (z land 1))

(* -- per-thread delta predictors ---------------------------------------- *)

type predictor = {
  mutable p_func : int;  (* previous Block's function id *)
  mutable p_block : int;  (* previous Block's block id *)
  mutable p_call : int;  (* previous Call target *)
  mutable p_sync : int;  (* previous lock/barrier address *)
  mutable p_addr : int;  (* previous memory-access address *)
}

let predictor () = { p_func = 0; p_block = 0; p_call = 0; p_sync = 0; p_addr = 0 }

(* -- encoding ----------------------------------------------------------- *)

(* The encoder writes varints straight into a growable [Bytes.t]: a
   [room] check covers one whole event (or access) and the writes after
   it index the bytes unchecked.  Each event's args and each access are
   at most four varints of at most 9 bytes. *)
type sink = { mutable buf : Bytes.t; mutable len : int }

let sink n = { buf = Bytes.create n; len = 0 }

let max_item = 4 * 9

let grow s need =
  let cap = ref (2 * Bytes.length s.buf) in
  while !cap < s.len + need do
    cap := 2 * !cap
  done;
  let b = Bytes.create !cap in
  Bytes.blit s.buf 0 b 0 s.len;
  s.buf <- b

let[@inline] room s need = if s.len + need > Bytes.length s.buf then grow s need

let put_long s n =
  let n = ref n and pos = ref s.len in
  while !n lsr 7 <> 0 do
    Bytes.unsafe_set s.buf !pos (Char.unsafe_chr (!n land 0x7f lor 0x80));
    n := !n lsr 7;
    incr pos
  done;
  Bytes.unsafe_set s.buf !pos (Char.unsafe_chr !n);
  s.len <- !pos + 1

(* [write_uint]'s bytes, into room already made; most values take the
   one-byte path. *)
let[@inline] put s n =
  if n land lnot 0x7f = 0 then begin
    Bytes.unsafe_set s.buf s.len (Char.unsafe_chr n);
    s.len <- s.len + 1
  end
  else put_long s n

(* Stage [t]'s payload in [p], from its start. *)
let payload p (t : Thread_trace.t) =
  p.len <- 0;
  let n = Thread_trace.length t in
  room p (9 + n);
  put p n;
  let events = t.events and ev = t.ev and n_instr = t.n_instr in
  for i = 0 to n - 1 do
    Bytes.unsafe_set p.buf (p.len + i)
      (Char.unsafe_chr (tag_of_kind (Array.unsafe_get events i)))
  done;
  p.len <- p.len + n;
  let pr = predictor () in
  (* args column *)
  for i = 0 to n - 1 do
    room p max_item;
    let e = 3 * i in
    let arg = ev.(e) in
    match Array.unsafe_get events i with
    | Thread_trace.Block ->
        let block = ev.(e + 1) in
        put p (zigzag (arg - pr.p_func));
        put p (zigzag (block - pr.p_block));
        put p n_instr.(i);
        put p (ev.(e + 5) - ev.(e + 2));
        pr.p_func <- arg;
        pr.p_block <- block
    | Thread_trace.Call ->
        put p (zigzag (arg - pr.p_call));
        pr.p_call <- arg
    | Thread_trace.Return -> ()
    | Thread_trace.Lock_acq | Thread_trace.Lock_rel | Thread_trace.Barrier ->
        put p (zigzag (arg - pr.p_sync));
        pr.p_sync <- arg
    | Thread_trace.Skip ->
        put p arg;
        put p n_instr.(i)
  done;
  (* access column: every access belongs to a Block, in block order *)
  let acc = t.acc and store = t.store in
  for j = 0 to (Array.length acc / 3) - 1 do
    room p max_item;
    let w = 3 * j in
    let addr = acc.(w + 1) in
    put p acc.(w);
    put p (zigzag (addr - pr.p_addr));
    put p acc.(w + 2);
    put p ((Char.code (Bytes.unsafe_get store (j lsr 3)) lsr (j land 7)) land 1);
    pr.p_addr <- addr
  done

let[@inline] crc p = Crc32.update 0 (Bytes.unsafe_to_string p.buf) 0 p.len

let put_crc s c =
  room s 4;
  Bytes.set_int32_le s.buf s.len (Int32.of_int c);
  s.len <- s.len + 4

(* One block onto [out], its payload staged in the scratch [p]. *)
let put_block out p (t : Thread_trace.t) =
  payload p t;
  room out (18 + p.len);
  put out t.Thread_trace.tid;
  put out p.len;
  Bytes.blit p.buf 0 out.buf out.len p.len;
  out.len <- out.len + p.len;
  put_crc out (crc p)

let add_block buf (t : Thread_trace.t) =
  let p = sink 512 in
  payload p t;
  write_uint buf t.Thread_trace.tid;
  write_uint buf p.len;
  Buffer.add_subbytes buf p.buf 0 p.len;
  Crc32.add_le buf (crc p)

let encode_sink (traces : Thread_trace.t array) =
  let out = sink 4096 and p = sink 4096 in
  room out (String.length magic + 9);
  Bytes.blit_string magic 0 out.buf 0 (String.length magic);
  out.len <- String.length magic;
  put out (Array.length traces);
  Array.iter (put_block out p) traces;
  out

let encode traces =
  let out = encode_sink traces in
  Bytes.sub_string out.buf 0 out.len

(* -- payload decoding --------------------------------------------------- *)

(* A lock or barrier address, delta-coded against the previous one. *)
let read_sync p r =
  let a = p.p_sync + unzigzag (read_uint r) in
  p.p_sync <- a;
  a

(* The payload is [s.[pos .. lim-1]], decoded in place: every read is
   bounded by [lim], so every count, truncation and trailing-byte check
   is relative to the block.  The tag column is
   checked in place, then read again beside the args column, so the
   columns go straight into the builder with no per-event
   intermediate. *)
let decode_payload ~tid s ~pos ~lim : Thread_trace.t =
  let module B = Thread_trace.Builder in
  let r = reader ~pos ~lim s in
  (* an event costs at least its 1 tag byte *)
  let n_events = read_count r ~min_bytes:1 "event" in
  let tags = r.pos in
  for i = tags to tags + n_events - 1 do
    let t = Char.code (String.unsafe_get s i) in
    if t >= Array.length kinds then
      raise (Corrupt (Printf.sprintf "bad event tag %d" t))
  done;
  r.pos <- tags + n_events;
  let b = B.create ~events:n_events ~accesses:0 tid in
  let p = predictor () in
  (* args column *)
  for i = tags to tags + n_events - 1 do
    match Array.unsafe_get kinds (Char.code (String.unsafe_get s i)) with
    | Thread_trace.Block ->
        let func = p.p_func + unzigzag (read_uint r) in
        let block = p.p_block + unzigzag (read_uint r) in
        let n_instr = read_uint r in
        if n_instr < 0 then raise (Corrupt "negative n_instr");
        (* an access costs at least 4 varint bytes in its column *)
        let n_acc = read_count r ~min_bytes:4 "access" in
        p.p_func <- func;
        p.p_block <- block;
        B.block b ~func ~block ~n_instr ~n_acc
    | Thread_trace.Call ->
        let f = p.p_call + unzigzag (read_uint r) in
        p.p_call <- f;
        B.call b f
    | Thread_trace.Return -> B.return b
    | Thread_trace.Lock_acq -> B.lock_acq b (read_sync p r)
    | Thread_trace.Lock_rel -> B.lock_rel b (read_sync p r)
    | Thread_trace.Barrier -> B.barrier b (read_sync p r)
    | Thread_trace.Skip ->
        let code = read_skip_code r in
        B.skip b code (read_uint r)
  done;
  (* access column: each Block's count passed the per-block bound, but
     their sum must also fit what is left, before it sizes the columns *)
  let n_acc = B.claimed b in
  let left = lim - r.pos in
  if n_acc > left / 4 then
    raise
      (Corrupt
         (Printf.sprintf "access count %d exceeds remaining input (%d bytes)"
            n_acc left));
  B.reserve_accesses b n_acc;
  for _ = 1 to n_acc do
    let ioff = read_uint r in
    let addr = p.p_addr + unzigzag (read_uint r) in
    let size = read_uint r in
    let is_store = read_uint r = 1 in
    p.p_addr <- addr;
    B.access b ~ioff ~addr ~size ~is_store
  done;
  if r.pos <> lim then
    raise
      (Corrupt
         (Printf.sprintf "pack payload has %d trailing byte(s)"
            (lim - r.pos)));
  B.finish b

let decode_block ~tid s ~pos ~lim =
  if tid < 0 then raise (Corrupt "negative thread id");
  let stored = Crc32.read_le s lim in
  let computed = Crc32.update 0 s pos (lim - pos) in
  if computed <> stored then
    raise
      (Corrupt
         (Printf.sprintf "pack block crc mismatch (stored %08x, computed %08x)"
            stored computed));
  decode_payload ~tid s ~pos ~lim

(* -- whole-buffer decoding ---------------------------------------------- *)

let c_decoded_threads =
  Obs.Counter.make "tf_trace_threads_decoded_total"
    ~help:"thread traces decoded from a trace file's bytes"

let c_decoded_bytes =
  Obs.Counter.make "tf_trace_bytes_decoded_total"
    ~help:"trace file bytes decoded"

let decode_blocks s : Thread_trace.t array =
  let n_magic = String.length magic in
  if String.length s < n_magic || String.sub s 0 n_magic <> magic then
    raise (Corrupt "bad pack magic");
  let r = reader ~pos:n_magic s in
  (* a thread block costs at least tid + len + 1-byte payload + 4-byte crc *)
  let n_threads = read_count r ~min_bytes:7 "thread" in
  let traces =
    Array.init n_threads (fun _ ->
        let tid = read_uint r in
        let payload_len = read_uint r in
        let pos = r.pos in
        (* [payload_len + 4] would overflow for a crafted length near
           [max_int]; subtract on the side that cannot *)
        if payload_len < 0 || payload_len > String.length s - pos - 4 then
          raise (Corrupt "pack block length exceeds remaining input");
        r.pos <- pos + payload_len + 4;
        decode_block ~tid s ~pos ~lim:(pos + payload_len))
  in
  if r.pos <> String.length s then
    raise
      (Corrupt
         (Printf.sprintf "%d byte(s) after the last pack block"
            (String.length s - r.pos)));
  traces

let decode s =
  Obs.span "decode"
    ~args:[ ("bytes", string_of_int (String.length s)) ]
    (fun () ->
      let traces = decode_blocks s in
      Obs.Counter.add c_decoded_threads (Array.length traces);
      Obs.Counter.add c_decoded_bytes (String.length s);
      traces)

(* -- files -------------------------------------------------------------- *)

let to_file path traces =
  let out = encode_sink traces in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output oc out.buf 0 out.len)

let of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> decode (really_input_string ic (in_channel_length ic)))
