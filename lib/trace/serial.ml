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
      5 Skip    reason(0=io,1=spin) n_instr
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

type reader = { data : string; mutable pos : int }

exception Corrupt of string

let read_byte r =
  if r.pos >= String.length r.data then raise (Corrupt "truncated");
  let c = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  c

(* The writer emits at most ceil(63/7) = 9 groups, so a continuation bit
   past shift 56 (i.e. a 10th byte) can only come from corrupt input; the
   bound also keeps [lsl] inside the word size (shifting an OCaml int by
   >= Sys.int_size is undefined). *)
let read_uint r =
  let rec go shift acc =
    let b = read_byte r in
    if shift >= 63 then raise (Corrupt "overlong varint");
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 <> 0 then go (shift + 7) acc else acc
  in
  go 0 0

(* Length headers are untrusted: a corrupt count must fail as [Corrupt]
   before it reaches [Array.init] (a 5-byte file must not trigger a
   multi-GB allocation or an [Invalid_argument]).  Every counted item
   costs at least [min_bytes] input bytes, so any honest count is bounded
   by the bytes left. *)
let read_count r ~min_bytes what =
  let n = read_uint r in
  if n < 0 then raise (Corrupt (Printf.sprintf "negative %s count" what));
  if n > (String.length r.data - r.pos) / min_bytes then
    raise
      (Corrupt
         (Printf.sprintf "%s count %d exceeds remaining input (%d bytes)" what
            n
            (String.length r.data - r.pos)));
  n

(* -- events ------------------------------------------------------------- *)

let write_event buf (e : Event.t) =
  match e with
  | Event.Block b ->
      write_uint buf 0;
      write_uint buf b.func;
      write_uint buf b.block;
      write_uint buf b.n_instr;
      write_uint buf (Array.length b.accesses);
      Array.iter
        (fun (a : Event.access) ->
          write_uint buf a.ioff;
          write_uint buf a.addr;
          write_uint buf a.size;
          write_uint buf (if a.is_store then 1 else 0))
        b.accesses
  | Event.Call f ->
      write_uint buf 1;
      write_uint buf f
  | Event.Return -> write_uint buf 2
  | Event.Lock_acq a ->
      write_uint buf 3;
      write_uint buf a
  | Event.Lock_rel a ->
      write_uint buf 4;
      write_uint buf a
  | Event.Skip { reason; n_instr } ->
      write_uint buf 5;
      write_uint buf
        (match reason with Event.Io -> 0 | Event.Spin -> 1 | Event.Excluded -> 2);
      write_uint buf n_instr
  | Event.Barrier a ->
      write_uint buf 6;
      write_uint buf a

let read_event r : Event.t =
  match read_uint r with
  | 0 ->
      let func = read_uint r in
      let block = read_uint r in
      let n_instr = read_uint r in
      (* an access is at least 4 varint bytes (ioff addr size is_store) *)
      let n_acc = read_count r ~min_bytes:4 "access" in
      let accesses =
        Array.init n_acc (fun _ ->
            let ioff = read_uint r in
            let addr = read_uint r in
            let size = read_uint r in
            let is_store = read_uint r = 1 in
            { Event.ioff; addr; size; is_store })
      in
      Event.Block { func; block; n_instr; accesses }
  | 1 -> Event.Call (read_uint r)
  | 2 -> Event.Return
  | 3 -> Event.Lock_acq (read_uint r)
  | 4 -> Event.Lock_rel (read_uint r)
  | 5 ->
      let reason =
        match read_uint r with
        | 0 -> Event.Io
        | 1 -> Event.Spin
        | 2 -> Event.Excluded
        | n -> raise (Corrupt (Printf.sprintf "bad skip reason %d" n))
      in
      let n_instr = read_uint r in
      Event.Skip { reason; n_instr }
  | 6 -> Event.Barrier (read_uint r)
  | n -> raise (Corrupt (Printf.sprintf "bad event tag %d" n))

(* -- legacy whole traces ------------------------------------------------ *)

let of_string s : Thread_trace.t array =
  let n_magic = String.length magic in
  if String.length s < n_magic || String.sub s 0 n_magic <> magic then
    raise (Corrupt "bad magic");
  let r = { data = s; pos = n_magic } in
  (* a thread costs at least 2 bytes (tid + event count) *)
  let n_threads = read_count r ~min_bytes:2 "thread" in
  Array.init n_threads (fun _ ->
      let tid = read_uint r in
      if tid < 0 then raise (Corrupt "negative thread id");
      (* an event is at least 1 byte (its tag) *)
      let n_events = read_count r ~min_bytes:1 "event" in
      let events = Array.init n_events (fun _ -> read_event r) in
      { Thread_trace.tid; events })
