(** TFPACK1: compact columnar, delta-encoded binary trace container (see
    pack.mli).

    Wire format (all integers LEB128 varints via {!Serial}):

    {v
      "TFPACK1" n_threads:varint block*
      block   := tid:varint payload_len:varint payload crc32:4B-LE
      payload := n_events:varint tags[n_events] args-column access-column
    v}

    The tag column is one byte per event ({!Serial}'s tag numbering).  The
    args column stores, per event in order: Block as zigzag deltas of
    (func, block) against the previous Block plus n_instr and the access
    count; Call as a zigzag delta against the previous Call target; lock
    and barrier addresses as zigzag deltas against the previous sync
    address; Skip as reason and n_instr.  The access column stores, for
    each Block's accesses in order, ioff, a zigzag delta of the address
    against the previous access (the stream crosses block boundaries),
    size, and the store flag.  All predictors reset per thread block, so
    each block decodes independently — which is what lets the CRC-32
    trailer sit per block.

    The CRC covers the payload only, not the block's [tid] and
    [payload_len] header.

    Hot traces are loops: block ids, lock addresses and access strides
    repeat with small deltas, so the columns varint-pack far better than
    a flat per-event encoding. *)

module Crc32 = Threadfuser_util.Crc32
module Obs = Threadfuser_obs.Obs

let magic = "TFPACK1"

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

let encode_payload (t : Thread_trace.t) =
  let buf = Buffer.create 512 in
  let n = Thread_trace.length t in
  Serial.write_uint buf n;
  Array.iter
    (fun k -> Buffer.add_char buf (Char.chr (Serial.tag_of_kind k)))
    t.events;
  let p = predictor () in
  (* args column *)
  for i = 0 to n - 1 do
    let e = 3 * i in
    let arg = t.ev.(e) in
    match t.events.(i) with
    | Thread_trace.Block ->
        let block = t.ev.(e + 1) in
        Serial.write_uint buf (zigzag (arg - p.p_func));
        Serial.write_uint buf (zigzag (block - p.p_block));
        Serial.write_uint buf t.n_instr.(i);
        Serial.write_uint buf (t.ev.(e + 5) - t.ev.(e + 2));
        p.p_func <- arg;
        p.p_block <- block
    | Thread_trace.Call ->
        Serial.write_uint buf (zigzag (arg - p.p_call));
        p.p_call <- arg
    | Thread_trace.Return -> ()
    | Thread_trace.Lock_acq | Thread_trace.Lock_rel | Thread_trace.Barrier ->
        Serial.write_uint buf (zigzag (arg - p.p_sync));
        p.p_sync <- arg
    | Thread_trace.Skip ->
        Serial.write_uint buf arg;
        Serial.write_uint buf t.n_instr.(i)
  done;
  (* access column: every access belongs to a Block, in block order *)
  for j = 0 to Thread_trace.n_accesses t - 1 do
    let w = 3 * j in
    let addr = t.acc.(w + 1) in
    Serial.write_uint buf t.acc.(w);
    Serial.write_uint buf (zigzag (addr - p.p_addr));
    Serial.write_uint buf t.acc.(w + 2);
    Serial.write_uint buf (if Thread_trace.is_store t j then 1 else 0);
    p.p_addr <- addr
  done;
  Buffer.contents buf

let add_block buf (t : Thread_trace.t) =
  let payload = encode_payload t in
  Serial.write_uint buf t.Thread_trace.tid;
  Serial.write_uint buf (String.length payload);
  Buffer.add_string buf payload;
  Crc32.add_le buf (Crc32.string payload)

let encode (traces : Thread_trace.t array) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Serial.write_uint buf (Array.length traces);
  Array.iter (add_block buf) traces;
  Buffer.contents buf

(* -- payload decoding --------------------------------------------------- *)

(* {!Serial.read_uint}'s one-byte case, here where the decode loops call
   it: libraries build [-opaque], so no call into {!Serial} is inlined,
   and tags aside most varints in a payload are one byte. *)
let[@inline] read_uint (r : Serial.reader) =
  let pos = r.pos in
  if pos < r.lim then begin
    let b = Char.code (String.unsafe_get r.data pos) in
    if b < 0x80 then begin
      r.pos <- pos + 1;
      b
    end
    else Serial.read_uint r
  end
  else Serial.read_uint r

(* A lock or barrier address, delta-coded against the previous one. *)
let read_sync p r =
  let a = p.p_sync + unzigzag (read_uint r) in
  p.p_sync <- a;
  a

(* The payload is [s.[pos .. lim-1]], decoded in place: {!Serial}'s
   readers are bounded by [lim], so every count, truncation and
   trailing-byte check is relative to the block.  The tag column is
   checked in place, then read again beside the args column, so the
   columns go straight into the builder with no per-event
   intermediate. *)
let decode_payload ~tid s ~pos ~lim : Thread_trace.t =
  let module B = Thread_trace.Builder in
  let r = Serial.reader ~pos ~lim s in
  (* an event costs at least its 1 tag byte *)
  let n_events = Serial.read_count r ~min_bytes:1 "event" in
  let tags = r.Serial.pos and kinds = Serial.kinds in
  for i = tags to tags + n_events - 1 do
    let t = Char.code (String.unsafe_get s i) in
    if t >= Array.length kinds then
      raise (Serial.Corrupt (Printf.sprintf "bad event tag %d" t))
  done;
  r.Serial.pos <- tags + n_events;
  let b = B.create ~events:n_events ~accesses:0 tid in
  let p = predictor () in
  (* args column *)
  for i = tags to tags + n_events - 1 do
    match Array.unsafe_get kinds (Char.code (String.unsafe_get s i)) with
    | Thread_trace.Block ->
        let func = p.p_func + unzigzag (read_uint r) in
        let block = p.p_block + unzigzag (read_uint r) in
        let n_instr = read_uint r in
        if n_instr < 0 then raise (Serial.Corrupt "negative n_instr");
        (* an access costs at least 4 varint bytes in its column *)
        let n_acc = Serial.read_count r ~min_bytes:4 "access" in
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
        let code = Serial.read_skip_code r in
        B.skip b code (read_uint r)
  done;
  (* access column: each Block's count passed the per-block bound, but
     their sum must also fit what is left, before it sizes the columns *)
  let n_acc = B.claimed b in
  let left = lim - r.Serial.pos in
  if n_acc > left / 4 then
    raise
      (Serial.Corrupt
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
  if r.Serial.pos <> lim then
    raise
      (Serial.Corrupt
         (Printf.sprintf "pack payload has %d trailing byte(s)"
            (lim - r.Serial.pos)));
  B.finish b

let decode_block ~tid s ~pos ~lim =
  if tid < 0 then raise (Serial.Corrupt "negative thread id");
  let stored = Crc32.read_le s lim in
  let computed = Crc32.update 0 s pos (lim - pos) in
  if computed <> stored then
    raise
      (Serial.Corrupt
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
    raise (Serial.Corrupt "bad pack magic");
  let r = Serial.reader ~pos:n_magic s in
  (* a thread block costs at least tid + len + 1-byte payload + 4-byte crc *)
  let n_threads = Serial.read_count r ~min_bytes:7 "thread" in
  let traces =
    Array.init n_threads (fun _ ->
        let tid = Serial.read_uint r in
        let payload_len = Serial.read_uint r in
        let pos = r.Serial.pos in
        (* [payload_len + 4] would overflow for a crafted length near
           [max_int]; subtract on the side that cannot *)
        if payload_len < 0 || payload_len > String.length s - pos - 4 then
          raise (Serial.Corrupt "pack block length exceeds remaining input");
        r.Serial.pos <- pos + payload_len + 4;
        decode_block ~tid s ~pos ~lim:(pos + payload_len))
  in
  if r.Serial.pos <> String.length s then
    raise
      (Serial.Corrupt
         (Printf.sprintf "%d byte(s) after the last pack block"
            (String.length s - r.Serial.pos)));
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
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (encode traces))

let of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> decode (really_input_string ic (in_channel_length ic)))
