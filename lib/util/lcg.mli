(** Deterministic 64-bit linear congruential PRNG (Knuth's MMIX constants).

    All synthetic workload inputs are drawn from this generator so that
    every run of the repository is bit-reproducible. *)

type t

val create : int -> t

(** 46 random bits as a non-negative int. *)
val bits : t -> int

(** [int t bound] draws uniformly from [0, bound); raises on [bound <= 0]. *)
val int : t -> int -> int

(** [int_range t lo hi] draws uniformly from [lo, hi] inclusive. *)
val int_range : t -> int -> int -> int

(** [chance t num den] is true with probability [num/den]. *)
val chance : t -> int -> int -> bool

(** In-place Fisher–Yates shuffle. *)
val shuffle : t -> 'a array -> unit

(** {1 Stream splitting} — one independent stream per task (suite-runner
    backoff jitter, fault injection), non-colliding and non-overlapping. *)

(** [derive ~seed ~index] deterministically maps a parent seed and a task
    index to a child seed through the SplitMix64 finalizer.  Distinct
    indices give distinct child seeds (up to two bits of truncation), and
    the resulting streams do not overlap within any practical draw count.
    Raises on [index < 0]. *)
val derive : seed:int -> index:int -> int

(** [split t] advances [t] one step and returns a fresh generator
    decorrelated from [t]'s continuation. *)
val split : t -> t

(** Stable (FNV-1a) non-negative hash of a string — for deriving streams
    keyed by name; unlike [Hashtbl.hash], guaranteed identical across
    OCaml versions. *)
val hash_string : string -> int
