(** DRAM timing: fixed access latency plus a global bandwidth limit modelled
    as a token bucket — each 32 B transaction occupies the channel for
    [1/bandwidth] cycles, so bursts queue behind each other. *)

type t = {
  latency : int;
  interval : float; (* cycles per transaction = 1 / bandwidth *)
  mutable next_free : float;
  mutable transactions : int;
}

let create ~latency ~transactions_per_cycle =
  if transactions_per_cycle <= 0.0 then invalid_arg "Dram.create";
  {
    latency;
    interval = 1.0 /. transactions_per_cycle;
    next_free = 0.0;
    transactions = 0;
  }

(** [access t ~now] returns the completion cycle of one transaction issued
    at cycle [now]. *)
let access t ~now =
  let start = Float.max (float_of_int now) t.next_free in
  t.next_free <- start +. t.interval;
  t.transactions <- t.transactions + 1;
  int_of_float start + t.latency
