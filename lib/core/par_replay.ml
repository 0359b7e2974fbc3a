(** Domain-parallel fan-out/fan-in: the engine behind
    [Analyzer.options.domains] and the cycle-level simulators' [-j]
    (docs/performance.md).

    Warps are independent after formation — each replays against its own
    lanes' traces and accumulates into per-warp or summable state — so the
    replay loop is embarrassingly parallel.  This module owns only the
    scheduling: it shards item indices [0..n-1] over a {e persistent} OCaml 5
    domain pool, gives every worker a private shard state (built {e inside}
    the worker, so all mutable replay state is domain-confined by
    construction), and hands the shards back in a deterministic order for
    the caller to reduce.

    Scheduling is static: worker [k] owns the contiguous chunk of indices
    [k*ceil(n/d) ..], with zero coordination.  Every worker processes its
    indices in ascending order, which keeps failure semantics
    deterministic: if items raise,
    the exception re-raised after the join is the one from the {e lowest}
    failing index — exactly the exception a sequential left-to-right loop
    would have surfaced (later items may additionally have run, but their
    shards are discarded by the raise). *)

module Obs = Threadfuser_obs.Obs

(* ------------------------------------------------------------------ *)
(* Auto -j: workloads too small to amortize a domain hand-off should not
   pay for domains they cannot feed.  The unit of "work" is whatever the
   caller can count cheaply up front (the analyzer uses total trace
   events, gpusim micro-ops); one extra domain is granted per
   [per_domain] units ([min_work_per_domain] for replay), so a tiny
   workload collapses to fewer domains — the reduction is
   grouping-invariant, so the output is byte-identical either way. *)

let min_work_per_domain = 20_000

let cap_domains ~per_domain ~requested ~items ~work =
  if requested = 1 then 1
  else min requested (min (max 1 items) (max 1 (work / per_domain)))

let auto_domains ~requested ~items ~work =
  cap_domains ~per_domain:min_work_per_domain ~requested ~items ~work

(* ------------------------------------------------------------------ *)
(* The persistent helper-domain pool.

   Spawning a domain costs tens of microseconds plus a minor-heap's worth
   of allocation — per analysis that fixed cost swamped small workloads
   (see BENCH_analyzer_par.json history).  Instead the process keeps ONE
   pool of helper domains that park on a condition variable between
   fork-join sections; a dispatch is a generation bump + broadcast, and
   the calling domain always doubles as worker 0.

   Safety properties:
   - {e exit}: an OCaml 5 process must join every domain it spawned before
     terminating, so the pool registers an [at_exit] hook that stops and
     joins the helpers (idempotent, pid-checked).
   - {e fork}: helper domains do not survive [fork]; a child that inherits
     the parent's pool record would block forever dispatching to ghosts.
     [get] therefore tags the pool with its owner pid and silently
     rebuilds in a forked child.  [quiesce] lets a forking supervisor
     (lib/runner) join the helpers {e before} forking so children start
     single-threaded.
   - {e concurrent callers}: only one domain can coordinate a fork-join at
     a time (serve worker domains may analyze concurrently).  Losers of
     the [try_lock] race — and nested calls from inside a worker — simply
     run every worker index inline in their own domain: the index →
     worker mapping is unchanged, so results are identical, just not
     accelerated. *)

let g_pool_domains =
  Obs.Gauge.make "tf_par_pool_domains"
    ~help:"helper domains parked in the persistent replay pool"

module Pool = struct
  type t = {
    m : Mutex.t; (* protects gen/job/remaining/stop *)
    work : Condition.t; (* helpers park here between jobs *)
    finished : Condition.t; (* coordinator waits for remaining = 0 *)
    coord : Mutex.t; (* held by the domain coordinating a fork-join *)
    mutable helpers : unit Domain.t list;
    mutable n_helpers : int; (* helper slots are 1..n_helpers *)
    mutable gen : int;
    mutable job : (int -> unit) option;
    mutable remaining : int;
    mutable stop : bool;
  }

  let create () =
    {
      m = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      coord = Mutex.create ();
      helpers = [];
      n_helpers = 0;
      gen = 0;
      job = None;
      remaining = 0;
      stop = false;
    }

  let helper_loop t slot =
    let last = ref 0 and running = ref true in
    while !running do
      Mutex.lock t.m;
      while t.gen = !last && not t.stop do
        Condition.wait t.work t.m
      done;
      if t.stop then begin
        running := false;
        Mutex.unlock t.m
      end
      else begin
        last := t.gen;
        let j = t.job in
        Mutex.unlock t.m;
        (* the job closure is exception-proofed by the dispatcher; the
           backstop only guards pool invariants *)
        (match j with Some f -> ( try f slot with _ -> ()) | None -> ());
        Mutex.lock t.m;
        t.remaining <- t.remaining - 1;
        if t.remaining = 0 then Condition.signal t.finished;
        Mutex.unlock t.m
      end
    done

  let max_helpers () = max 0 (Domain.recommended_domain_count () - 1)

  (* called with [coord] held *)
  let ensure_helpers t wanted =
    let cap = min wanted (max_helpers ()) in
    while t.n_helpers < cap do
      let slot = t.n_helpers + 1 in
      t.helpers <- Domain.spawn (fun () -> helper_loop t slot) :: t.helpers;
      t.n_helpers <- slot;
      Obs.Gauge.set g_pool_domains t.n_helpers
    done

  (* Run [body k] for k in 0..workers-1, caller as worker 0.  Helpers
     cover slots 1..n_helpers; the caller also covers any slot the
     capped pool cannot.  Every slot runs exactly once whatever the pool
     state, so callers may rely on slot coverage for correctness and on
     the pool only for speed. *)
  let run t ~workers (body : int -> unit) =
    if workers <= 1 then body 0
    else if not (Mutex.try_lock t.coord) then
      (* pool busy (another session/domain is coordinating): inline *)
      for k = 0 to workers - 1 do
        body k
      done
    else
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.coord)
        (fun () ->
          ensure_helpers t (workers - 1);
          if t.n_helpers = 0 then
            for k = 0 to workers - 1 do
              body k
            done
          else begin
            Mutex.lock t.m;
            t.job <- Some (fun slot -> if slot < workers then body slot);
            t.gen <- t.gen + 1;
            t.remaining <- t.n_helpers;
            Condition.broadcast t.work;
            Mutex.unlock t.m;
            body 0;
            (* slots beyond the helper cap fall back to the caller *)
            for k = t.n_helpers + 1 to workers - 1 do
              body k
            done;
            Mutex.lock t.m;
            while t.remaining > 0 do
              Condition.wait t.finished t.m
            done;
            t.job <- None;
            Mutex.unlock t.m
          end)

  let shutdown t =
    Mutex.lock t.coord;
    Mutex.lock t.m;
    t.stop <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.m;
    List.iter Domain.join t.helpers;
    t.helpers <- [];
    t.n_helpers <- 0;
    Obs.Gauge.set g_pool_domains 0;
    Mutex.unlock t.coord
end

(* the process-global pool, keyed by owner pid (see the fork note above) *)
let global : (int * Pool.t) option ref = ref None

let global_mu = Mutex.create ()

let at_exit_registered = ref false

let quiesce () =
  Mutex.lock global_mu;
  let doomed =
    match !global with
    | Some (pid, t) when pid = Unix.getpid () ->
        global := None;
        Some t
    | Some _ ->
        (* forked child: the helpers only ever existed in the parent *)
        global := None;
        None
    | None -> None
  in
  Mutex.unlock global_mu;
  Option.iter Pool.shutdown doomed

let get_pool () =
  Mutex.lock global_mu;
  let t =
    match !global with
    | Some (pid, t) when pid = Unix.getpid () -> t
    | _ ->
        let t = Pool.create () in
        global := Some (Unix.getpid (), t);
        if not !at_exit_registered then begin
          at_exit_registered := true;
          Stdlib.at_exit quiesce
        end;
        t
  in
  Mutex.unlock global_mu;
  t

let pool_domains () =
  Mutex.lock global_mu;
  let n =
    match !global with
    | Some (pid, t) when pid = Unix.getpid () -> t.Pool.n_helpers
    | _ -> 0
  in
  Mutex.unlock global_mu;
  n

(* ------------------------------------------------------------------ *)

(* The first exception each worker hit, tagged with its item index; the
   join re-raises the lowest-index one with its original backtrace.
   [f_index = -1] marks a failure of [init] itself (it precedes every
   item the worker would have run). *)
type failure = {
  f_index : int;
  f_exn : exn;
  f_bt : Printexc.raw_backtrace;
}

let reraise_lowest (failures : failure option array) =
  match
    Array.fold_left
      (fun acc f ->
        match (acc, f) with
        | None, f -> f
        | Some _, None -> acc
        | Some a, Some b -> if b.f_index < a.f_index then f else acc)
      None failures
  with
  | None -> ()
  | Some f -> Printexc.raise_with_backtrace f.f_exn f.f_bt

(** [map_shards ~domains ~n ~init ~item] processes indices
    [0..n-1] with up to [domains] workers.  Each worker runs
    [init ()] {e in its own domain} to build a private shard, then
    [item shard i] for every index it owns (ascending), and the shards
    come back ordered by worker id — merge them in that order and any
    order-sensitive reduction stays deterministic at every [domains].

    A worker stops at its first exception; after all workers join, the
    exception of the lowest failing index is re-raised.  [domains <= 1]
    (or [n <= 1]) runs inline in the calling domain with no spawns —
    byte-for-byte today's sequential behaviour. *)
let map_shards ~domains ~n ~(init : unit -> 'shard)
    ~(item : 'shard -> int -> unit) : 'shard list =
  if domains <= 1 || n <= 1 then begin
    let shard = init () in
    (try
       for i = 0 to n - 1 do
         item shard i
       done
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       Printexc.raise_with_backtrace e bt);
    [ shard ]
  end
  else begin
    let workers = min domains n in
    (* worker k owns [k*chunk, min ((k+1)*chunk, n)) *)
    let chunk = (n + workers - 1) / workers in
    let failures : failure option array = Array.make workers None in
    let shards : 'shard option array = Array.make workers None in
    let run_worker k =
      let fail i e =
        failures.(k) <-
          Some { f_index = i; f_exn = e; f_bt = Printexc.get_raw_backtrace () }
      in
      match init () with
      | exception e -> fail (-1) e
      | shard ->
          shards.(k) <- Some shard;
          let lo = k * chunk and hi = min n ((k + 1) * chunk) in
          let i = ref lo in
          while !i < hi && failures.(k) = None do
            (try item shard !i with e -> fail !i e);
            incr i
          done
    in
    Pool.run (get_pool ()) ~workers run_worker;
    reraise_lowest failures;
    (* no failure → every worker stored its shard *)
    Array.to_list shards |> List.map Option.get
  end

(** [parallel_for ~domains ~n body] runs [body i] for every index in
    [0..n-1], statically chunked over the pool; [body] instances must
    touch disjoint state (the simulators index disjoint SMs/cores).
    Exceptions re-raise as in {!map_shards}.  [domains <= 1] runs
    inline. *)
let parallel_for ~domains ~n (body : int -> unit) =
  if domains <= 1 || n <= 1 then
    for i = 0 to n - 1 do
      body i
    done
  else begin
    let workers = min domains n in
    let chunk = (n + workers - 1) / workers in
    let failures : failure option array = Array.make workers None in
    Pool.run (get_pool ()) ~workers (fun k ->
        let lo = k * chunk and hi = min n ((k + 1) * chunk) in
        let i = ref lo in
        while !i < hi && failures.(k) = None do
          (try body !i
           with e ->
             failures.(k) <-
               Some
                 {
                   f_index = !i;
                   f_exn = e;
                   f_bt = Printexc.get_raw_backtrace ();
                 });
          incr i
        done);
    reraise_lowest failures
  end
