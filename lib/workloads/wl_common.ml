(** Shared layout constants and host-setup helpers for workload modules.

    Every workload machine instance is fresh, so all workloads share the
    same global-segment map: a parameter block at [param 0..] plus data
    regions 1 MiB apart.  Setup code writes inputs with the deterministic
    {!Threadfuser_util.Lcg} generator so runs are reproducible. *)

module Memory = Threadfuser_machine.Memory
module Lcg = Threadfuser_util.Lcg

(* Parameter block: workloads read scalars from here. *)
let param k = 0x11000 + (8 * k)

(* Data regions: 1 MiB apart, all below the heap base. *)
let region k =
  if k < 0 || k > 200 then invalid_arg "Wl_common.region";
  0x100000 * (k + 1)

(* Lock tables for fine-grained locking live in their own region. *)
let lock_base = 0x18000

let set_param mem k v = Memory.store_i64 mem (param k) v

(** Fill [n] 64-bit words at [addr] with uniform values in [0, bound). *)
let fill_random mem ~seed ~addr ~n ~bound =
  let g = Lcg.create seed in
  for i = 0 to n - 1 do
    Memory.store_i64 mem (addr + (8 * i)) (Lcg.int g bound)
  done

(** Fill [n] bytes at [addr]; [skew] biases towards repeated runs (higher =
    more compressible, used by the pigz workload). *)
let fill_random_bytes mem ~seed ~addr ~n ~skew =
  let g = Lcg.create seed in
  let prev = ref 0 in
  for i = 0 to n - 1 do
    let b = if Lcg.chance g skew 100 then !prev else Lcg.int g 256 in
    prev := b;
    Memory.store_byte mem (addr + i) b
  done

(* Builder shorthand used across workload modules. *)
let p k = Threadfuser_prog.Build.mem ~disp:(param k) ()
