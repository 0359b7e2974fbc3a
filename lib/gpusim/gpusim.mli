(** Trace-driven cycle-level SIMT simulator — the stand-in for Accel-Sim
    (paper §III, §V-A).

    Consumes the analyzer's warp-level RISC traces and models multiple SMs
    with bounded warp residency, GTO/LRR scheduling, in-order per-warp
    issue gated by a register scoreboard and an MSHR limit, per-SM L1s, a
    shared L2 and a bandwidth-limited DRAM channel.

    Execution is decoupled into SM-local legs plus a deterministic
    cycle-epoch barrier merge of the shared L2/DRAM, so the SM partition
    can run across OCaml 5 domains ([-j]) with byte-identical statistics
    at any domain count and any epoch length (docs/performance.md). *)

type stats = {
  cycles : int;
  instructions : int;  (** warp-level micro-ops issued *)
  thread_instructions : int;  (** summed over active lanes *)
  l1_hits : int;
  l1_misses : int;
  l2_hits : int;
  l2_misses : int;
  dram_transactions : int;
  idle_cycles : int;  (** SM-cycles a working SM spent not issuing *)
  stall_dependency : int;
      (** stall episodes blocked on ALU-produced registers *)
  stall_memory : int;
      (** stall episodes blocked on outstanding loads / MSHRs *)
  stall_empty : int;
      (** SM-cycles spent drained while the kernel ran on other SMs *)
}

val ipc : stats -> float

val default_epoch : int

(** Run one kernel (a whole warp trace) to completion.  [domains]
    partitions the SMs over the persistent domain pool
    ({!Threadfuser.Par_replay}); [epoch] sets the cycle-epoch barrier
    length.  Statistics are byte-identical at any [domains >= 1] and any
    [epoch >= 1]; only the wall-clock changes.  Raises
    [Invalid_argument] when [domains < 1]. *)
val run :
  ?config:Config.t ->
  ?domains:int ->
  ?epoch:int ->
  Threadfuser.Warp_trace.t ->
  stats

(** Wall-clock seconds at the configured core clock. *)
val seconds : config:Config.t -> stats -> float

val pp_stats : Format.formatter -> stats -> unit

(** Dominant bottleneck classification for advisor-style summaries. *)
val bottleneck : stats -> [ `Memory | `Dependencies | `Throughput ]
