(** Set-associative LRU cache model (tags only) shared by the GPU and CPU
    timing simulators. *)

type config = { size_bytes : int; assoc : int; line_bytes : int }

type t = {
  config : config;
  n_sets : int;
  tags : int array;
  stamps : int array;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  line_shift : int;  (** log2 [line_bytes], or -1 when [line_bytes] or the set count is not a power of two *)
  set_shift : int;  (** log2 of the set count *)
}

(** Raises if size/assoc/line do not divide evenly. *)
val create : config -> t

(** [access t addr] — true on hit; misses allocate (LRU victim).  Set
    and tag are [addr / line_bytes mod n_sets] and
    [addr / line_bytes / n_sets], computed with a shift and a mask when
    both counts are powers of two and [addr >= 0]. *)
val access : t -> int -> bool

val hit_rate : t -> float
