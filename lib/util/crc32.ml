(** CRC-32 (IEEE 802.3, the zlib/PNG polynomial), slicing-by-8, pure
    OCaml.  Used as the integrity trailer of the TFPACK1 compact trace
    format, the serve stream and the cache blob envelope: a 32-bit
    checksum catches every single-bit flip and any burst shorter than the
    polynomial, which is exactly the torn-write / bit-flip damage the
    artifact store must refuse to serve. *)

(* Eight 256-entry tables, flat: [table.(k * 256 + b)] is the CRC of byte
   [b] followed by [k] zero bytes, so one step folds 8 input bytes with 8
   independent lookups instead of 8 dependent ones. *)
let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let c = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- t.(c land 0xff) lxor (c lsr 8)
    done
  done;
  t

(* The running value stays below 2^32 throughout: the table entries are
   32-bit, [lsr] only shrinks, and [lxor] cannot set higher bits.  After
   the one bounds check every read is in [pos, pos + len), so the loops
   use unchecked accesses.  The helpers are closed top-level functions so
   that the compiler inlines them. *)
let byte s i = Char.code (String.unsafe_get s i)
let tb k i = Array.unsafe_get table ((k lsl 8) lor i)

let update crc s pos len =
  if pos < 0 || len < 0 || len > String.length s - pos then
    invalid_arg "Crc32.update: bad substring";
  let c = ref (crc lxor 0xffffffff) and i = ref pos in
  let stop8 = pos + (len land lnot 7) and stop = pos + len in
  while !i < stop8 do
    let p = !i in
    let x =
      !c
      lxor (byte s p lor (byte s (p + 1) lsl 8) lor (byte s (p + 2) lsl 16)
           lor (byte s (p + 3) lsl 24))
    in
    c :=
      tb 7 (x land 0xff)
      lxor tb 6 ((x lsr 8) land 0xff)
      lxor tb 5 ((x lsr 16) land 0xff)
      lxor tb 4 (x lsr 24)
      lxor tb 3 (byte s (p + 4))
      lxor tb 2 (byte s (p + 5))
      lxor tb 1 (byte s (p + 6))
      lxor tb 0 (byte s (p + 7));
    i := p + 8
  done;
  while !i < stop do
    c := tb 0 ((!c lxor byte s !i) land 0xff) lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xffffffff

let string s = update 0 s 0 (String.length s)

let add_le buf crc =
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((crc lsr (8 * i)) land 0xff))
  done

let read_le s pos =
  if pos < 0 || pos > String.length s - 4 then
    invalid_arg "Crc32.read_le: out of bounds";
  let b i = Char.code (String.unsafe_get s (pos + i)) in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)
