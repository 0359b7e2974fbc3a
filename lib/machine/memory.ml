(** Flat byte-addressed memory, lazily paged.

    Pages are 4 KiB [Bytes] buffers allocated on first touch, so the sparse
    multi-gigabyte address space of {!Layout} costs only what workloads
    actually touch.  All multi-byte accesses are little-endian.  Reads of
    untouched memory return zero. *)

type t = {
  pages : (int, Bytes.t) Hashtbl.t;
  mutable last_id : int; (* one-entry lookup cache *)
  mutable last_page : Bytes.t;
}

let page_bits = 12

let page_size = 1 lsl page_bits

let create () =
  let zero = Bytes.make page_size '\000' in
  { pages = Hashtbl.create 1024; last_id = -1; last_page = zero }

let page t id =
  if id = t.last_id then t.last_page
  else begin
    let p =
      match Hashtbl.find_opt t.pages id with
      | Some p -> p
      | None ->
          let p = Bytes.make page_size '\000' in
          Hashtbl.add t.pages id p;
          p
    in
    t.last_id <- id;
    t.last_page <- p;
    p
  end

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

(** [load t ~width addr]: W1/W2/W4 zero-extend, W8 is the full word. *)
let load t ~width addr =
  check_addr addr;
  let off = addr land (page_size - 1) in
  let n = Threadfuser_isa.Width.bytes width in
  if off + n > page_size then load_bytes_slow t addr n
  else
    let p = page t (addr lsr page_bits) in
    match width with
    | Threadfuser_isa.Width.W1 -> Char.code (Bytes.get p off)
    | Threadfuser_isa.Width.W2 -> Bytes.get_uint16_le p off
    | Threadfuser_isa.Width.W4 ->
        Int32.to_int (Bytes.get_int32_le p off) land 0xffffffff
    | Threadfuser_isa.Width.W8 -> Int64.to_int (Bytes.get_int64_le p off)

let store t ~width addr v =
  check_addr addr;
  let off = addr land (page_size - 1) in
  let n = Threadfuser_isa.Width.bytes width in
  if off + n > page_size then store_bytes_slow t addr n v
  else
    let p = page t (addr lsr page_bits) in
    match width with
    | Threadfuser_isa.Width.W1 -> Bytes.set_uint8 p off (v land 0xff)
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
