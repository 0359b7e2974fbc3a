(** Flat byte-addressed memory, lazily paged.

    Pages are 4 KiB [Bytes] buffers allocated on first touch, so the sparse
    multi-gigabyte address space of {!Layout} costs only what workloads
    actually touch.  All multi-byte accesses are little-endian.  Reads of
    untouched memory return zero. *)

(* Page lookups go through a small direct-mapped cache in front of the
   table.  Its slot is a multiplicative hash of the page id, not the id's
   low bits: per-thread stacks sit 64 KiB (16 pages) apart, so a low-bits
   index maps the same stack offset of threads 16 apart to one slot, and
   the round-robin scheduler makes them evict one another. *)
type t = {
  pages : (int, Bytes.t) Hashtbl.t;
  ids : int array; (* cached page id per slot; -1 while empty *)
  cached : Bytes.t array;
}

let page_bits = 12

let page_size = 1 lsl page_bits

let cache_bits = 8

let create () =
  let zero = Bytes.make page_size '\000' in
  {
    pages = Hashtbl.create 1024;
    ids = Array.make (1 lsl cache_bits) (-1);
    cached = Array.make (1 lsl cache_bits) zero;
  }

(* The top [cache_bits] bits of the id times an odd 63-bit constant
   (Fibonacci hashing): in range for every id, negatives included. *)
let[@inline] slot id = (id * 0x1E3779B97F4A7C15) lsr (Sys.int_size - cache_bits)

let page_miss t s id =
  let p =
    match Hashtbl.find t.pages id with
    | p -> p
    | exception Not_found ->
        let p = Bytes.make page_size '\000' in
        Hashtbl.add t.pages id p;
        p
  in
  Array.unsafe_set t.ids s id;
  Array.unsafe_set t.cached s p;
  p

let[@inline] page t id =
  let s = slot id in
  if Array.unsafe_get t.ids s = id then Array.unsafe_get t.cached s
  else page_miss t s id

let check_addr addr =
  if addr < 0 then invalid_arg "Memory: negative address"

let load_byte t addr =
  check_addr addr;
  Char.code (Bytes.get (page t (addr lsr page_bits)) (addr land (page_size - 1)))

let store_byte t addr v =
  check_addr addr;
  Bytes.set (page t (addr lsr page_bits)) (addr land (page_size - 1))
    (Char.chr (v land 0xff))

(* Slow cross-page paths assemble values byte by byte. *)
let load_bytes_slow t addr n =
  let v = ref 0 in
  for k = n - 1 downto 0 do
    v := (!v lsl 8) lor load_byte t (addr + k)
  done;
  !v

let store_bytes_slow t addr n v =
  for k = 0 to n - 1 do
    store_byte t (addr + k) ((v lsr (8 * k)) land 0xff)
  done

(* The width's byte count, matched here: a call into [Width] is never
   inlined under [-opaque]. *)
let[@inline] width_bytes : Threadfuser_isa.Width.t -> int = function
  | Threadfuser_isa.Width.W1 -> 1
  | Threadfuser_isa.Width.W2 -> 2
  | Threadfuser_isa.Width.W4 -> 4
  | Threadfuser_isa.Width.W8 -> 8

(** [load t ~width addr]: W1/W2/W4 zero-extend, W8 is the full word. *)
let load t ~width addr =
  check_addr addr;
  let off = addr land (page_size - 1) in
  let n = width_bytes width in
  if off + n > page_size then load_bytes_slow t addr n
  else
    let p = page t (addr lsr page_bits) in
    match width with
    | Threadfuser_isa.Width.W1 -> Char.code (Bytes.unsafe_get p off)
    | Threadfuser_isa.Width.W2 -> Bytes.get_uint16_le p off
    | Threadfuser_isa.Width.W4 ->
        Int32.to_int (Bytes.get_int32_le p off) land 0xffffffff
    | Threadfuser_isa.Width.W8 -> Int64.to_int (Bytes.get_int64_le p off)

let store t ~width addr v =
  check_addr addr;
  let off = addr land (page_size - 1) in
  let n = width_bytes width in
  if off + n > page_size then store_bytes_slow t addr n v
  else
    let p = page t (addr lsr page_bits) in
    match width with
    | Threadfuser_isa.Width.W1 -> Bytes.unsafe_set p off (Char.unsafe_chr (v land 0xff))
    | Threadfuser_isa.Width.W2 -> Bytes.set_uint16_le p off (v land 0xffff)
    | Threadfuser_isa.Width.W4 -> Bytes.set_int32_le p off (Int32.of_int v)
    | Threadfuser_isa.Width.W8 -> Bytes.set_int64_le p off (Int64.of_int v)

(* -- host-side convenience for workload setup --------------------------- *)

let load_i64 t addr = load t ~width:Threadfuser_isa.Width.W8 addr

let store_i64 t addr v = store t ~width:Threadfuser_isa.Width.W8 addr v

(** [store_array64 t addr a] lays out [a] as consecutive 64-bit words. *)
let store_array64 t addr a =
  Array.iteri (fun i v -> store_i64 t (addr + (8 * i)) v) a

let load_array64 t addr n = Array.init n (fun i -> load_i64 t (addr + (8 * i)))

let store_string t addr s =
  String.iteri (fun i c -> store_byte t (addr + i) (Char.code c)) s

let touched_pages t = Hashtbl.length t.pages
