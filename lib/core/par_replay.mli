(** Domain-parallel fan-out/fan-in: shards item indices over a persistent
    OCaml 5 helper-domain pool with per-worker private state and a
    deterministic fan-in order, so [Analyzer.analyze] can replay disjoint
    warp slices — and the cycle-level simulators disjoint SM/core
    partitions — in parallel yet reduce to byte-identical output at any
    domain count.  See docs/performance.md. *)

val min_work_per_domain : int
(** Work units (the analyzer counts trace events) that earn one domain:
    20000. *)

(** [auto_domains ~requested ~items ~work] caps a requested domain count
    for a workload of [items] shardable units carrying [work] total work
    units: one domain is granted per {!min_work_per_domain} work units,
    never more than [items] or [requested], which must be at least 1
    (callers reject lower counts).  Tiny workloads thus collapse
    toward serial instead of paying hand-off costs they cannot amortize;
    the reduction is grouping-invariant, so output is byte-identical
    either way. *)
val auto_domains : requested:int -> items:int -> work:int -> int

(** [cap_domains ~per_domain ~requested ~items ~work] is the same cap
    with [per_domain] work units per domain; {!auto_domains} is
    [cap_domains ~per_domain:min_work_per_domain].  The cycle-level GPU
    simulator caps its domains this way by micro-op volume. *)
val cap_domains :
  per_domain:int -> requested:int -> items:int -> work:int -> int

(** [map_shards ~domains ~n ~init ~item] processes indices [0..n-1] with
    up to [domains] workers drawn from the persistent pool, each owning
    one contiguous chunk.  [init ()] runs {e inside} each worker domain
    (its shard is domain-confined by construction); [item shard i] runs
    for every index the worker owns, in ascending order.  Returns the shards
    ordered by worker id — merging in that order keeps order-sensitive
    reductions deterministic at every [domains].

    If items raise, every worker stops at its first exception and, after
    the join, the exception of the {e lowest} failing index is re-raised
    (the one a sequential loop would have surfaced).  [domains <= 1] or
    [n <= 1] runs inline with no spawns.  When another domain is already
    coordinating a fork-join (concurrent serve sessions), the call runs
    all workers inline — same results, just not accelerated. *)
val map_shards :
  domains:int ->
  n:int ->
  init:(unit -> 'shard) ->
  item:('shard -> int -> unit) ->
  'shard list

(** [parallel_for ~domains ~n body] runs [body i] for [i] in [0..n-1]
    over the pool in static contiguous chunks.  The [body] instances
    must touch disjoint state (the simulators index disjoint SMs or
    cores).  On exceptions the lowest failing index re-raises after the
    join; [domains <= 1] runs inline. *)
val parallel_for : domains:int -> n:int -> (int -> unit) -> unit

(** Helper domains currently parked in the process pool (0 before first
    parallel use, after {!quiesce}, and always in forked children). *)
val pool_domains : unit -> int

(** Stop and join the pool's helper domains.  Idempotent; also installed
    as an [at_exit] hook.  A supervisor that is about to [fork] should
    call this first so children start single-threaded. *)
val quiesce : unit -> unit
