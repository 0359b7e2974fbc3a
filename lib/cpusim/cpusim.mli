(** First-order multicore CPU timing model — the baseline the paper's
    Fig. 6 speedups normalize against.

    Each thread's trace replays on an in-order core at 1 IPC plus memory
    stalls from a private-L1 / shared-L2 / DRAM hierarchy; threads are
    assigned round-robin to cores and the program finishes when the slowest
    core does.

    Execution is decoupled into core-local legs plus one deterministic
    shared-L2 merge in [(cycle, core)] order, so the core partition can
    run across OCaml 5 domains ([-j]) with byte-identical statistics at
    any domain count (docs/performance.md). *)

module Cache = Threadfuser_gpusim.Cache

type config = {
  n_cores : int;
  l1 : Cache.config;
  l1_miss_penalty : int;
  l2 : Cache.config;
  l2_miss_penalty : int;
  clock_ghz : float;
}

(** A Xeon-class 20-core part, like the paper's trace machine. *)
val default_config : config

type stats = {
  cycles : int;  (** max over cores *)
  core_cycles : int array;
  instructions : int;
  l1_hit_rate : float;
}

(** Simulate the trace set.  [domains] partitions the cores over the
    persistent domain pool ({!Threadfuser.Par_replay}); statistics are
    byte-identical at any [domains >= 1]; [domains < 1] raises
    [Invalid_argument]. *)
val run :
  ?config:config ->
  ?domains:int ->
  Threadfuser_trace.Thread_trace.t array ->
  stats

val seconds : config:config -> stats -> float
