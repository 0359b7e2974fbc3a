(** Shared layout constants and host-setup helpers for workload modules:
    a parameter block, 1 MiB-spaced data regions, cache-line-spaced lock
    slots, and deterministic input fills. *)

(** Raises outside [0, 200]. *)
val region : int -> int

val lock_base : int

val set_param : Threadfuser_machine.Memory.t -> int -> int -> unit

val fill_random :
  Threadfuser_machine.Memory.t -> seed:int -> addr:int -> n:int -> bound:int -> unit

(** [skew] biases towards repeated runs (compressibility). *)
val fill_random_bytes :
  Threadfuser_machine.Memory.t -> seed:int -> addr:int -> n:int -> skew:int -> unit

(** Builder operand reading parameter [k]. *)
val p : int -> Threadfuser_isa.Operand.t
