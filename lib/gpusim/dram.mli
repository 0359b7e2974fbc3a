(** DRAM timing: fixed access latency plus a global bandwidth limit — each
    32 B transaction occupies the channel for [1/bandwidth] cycles, so
    bursts queue behind each other. *)

type t = {
  latency : int;
  interval : float;
  mutable next_free : float;
  mutable transactions : int;
}

val create : latency:int -> transactions_per_cycle:float -> t

(** [access t ~now] — completion cycle of one transaction issued at [now]. *)
val access : t -> now:int -> int
