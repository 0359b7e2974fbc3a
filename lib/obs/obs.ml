(** In-process observability for the analysis pipeline: hierarchical timed
    spans, instant events on named tracks, monotonic counters and latency /
    size histograms, all feeding one global thread-safe collector.

    The collector is *off* by default.  Every hook is guarded by a single
    load-and-branch on {!enabled}, so an instrumented pipeline with the
    collector disabled runs at native speed ([bench/main.exe perf] records
    the paired on/off ratio); argument construction at call sites must therefore also sit
    behind [if !Obs.enabled then ...].

    Spans and instants land on {e tracks} (Perfetto rows).  Framework
    timing uses {!pipeline} / {!replay_track}; the analyzer's per-site
    bottleneck attribution uses {!blame_track}.  Export with
    {!Trace_export} (Chrome trace-event JSON, opens in ui.perfetto.dev) or
    {!Prom} (Prometheus text exposition).  See docs/observability.md. *)

module Stats = Threadfuser_stats.Stats

let enabled = ref false
let set_enabled b = enabled := b

(* Memoized decimal rendering of small non-negative ints.  Per-warp
   replay spans carry lane counts and warp ids, almost always well under
   the cap; rendering them through this table makes an enabled-path hook
   allocation-free for the common case.
   The table is immutable after init, so sharing across domains is safe. *)
let itos_cap = 4096
let itos_table = Array.init itos_cap string_of_int
let itos n = if n >= 0 && n < itos_cap then itos_table.(n) else string_of_int n

(* One global mutex guards the event log, track registry and histogram
   sample buffers.  Counters use [Atomic.t] and skip the lock.

   Domain-safety: the serve daemon's worker domains and the replay pool's
   shards ([Par_replay]) write into this collector at once, so every
   mutation of shared state is either atomic or under [lock] — including
   registry creation and histogram sample growth/decimation.  The two plain refs ([enabled],
   [t0]) are single-word flags written only from lifecycle entry points
   ([set_enabled]/[reset]); concurrent readers may observe either value,
   which is benign (an event more or less around the toggle), and OCaml's
   memory model makes such races well-defined for immediate values. *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* ------------------------------------------------------------------ *)
(* Time base: wall-clock microseconds relative to the last [reset].    *)

let t0 = ref (Unix.gettimeofday ())
let now_us () = (Unix.gettimeofday () -. !t0) *. 1e6

(* ------------------------------------------------------------------ *)
(* Tracks                                                              *)

type track = int

let track_names : (int, string) Hashtbl.t = Hashtbl.create 8
let track_ids : (string, int) Hashtbl.t = Hashtbl.create 8
let next_track = ref 0

let track name =
  locked (fun () ->
      match Hashtbl.find_opt track_ids name with
      | Some id -> id
      | None ->
          let id = !next_track in
          incr next_track;
          Hashtbl.replace track_ids name id;
          Hashtbl.replace track_names id name;
          id)

(* Registration order fixes the Perfetto row order. *)
let pipeline = track "pipeline"
let replay_track = track "warp replay"
let blame_track = track "attribution"

(* ------------------------------------------------------------------ *)
(* Events                                                              *)

type event =
  | Complete of {
      name : string;
      track : track;
      ts : float; (* µs since reset *)
      dur : float; (* µs *)
      args : (string * string) list;
    }
  | Instant of {
      name : string;
      track : track;
      ts : float;
      args : (string * string) list;
    }

(* The event log, newest first.  Bounded so a long replay with per-event
   instrumentation cannot exhaust memory: past the cap, events are counted
   in [dropped] instead of stored. *)
let max_events = ref 500_000
let set_max_events n = max_events := n
let events_rev : event list ref = ref []
let n_events = ref 0
let dropped = Atomic.make 0

(* ------------------------------------------------------------------ *)
(* Flight recorder: a bounded ring of recent events, independent of the
   global log.  One instance per serve session / suite job gives a
   post-mortem timeline for exactly the runs that cannot be reproduced:
   the ring holds the *last* [capacity] events, not the first, so the
   dump always covers the moments before the failure.  [record] works
   whether or not the global collector is enabled (supervisors note
   lifecycle events explicitly); additionally, a recorder [attach]ed to
   the current domain taps every event the enabled collector records
   there, so analyzer spans land in the session's ring too. *)
module Flight = struct
  type t = {
    label : string;
    cap : int;
    ring : event array;
    mutable n : int;  (* total recorded; ring slot is [n mod cap] *)
    fm : Mutex.t;  (* own mutex: the select loop and a worker both write *)
  }

  let filler = Instant { name = ""; track = pipeline; ts = 0.0; args = [] }

  let create ?(capacity = 2048) label =
    if capacity < 1 then invalid_arg "Obs.Flight.create: capacity must be >= 1";
    {
      label;
      cap = capacity;
      ring = Array.make capacity filler;
      n = 0;
      fm = Mutex.create ();
    }

  let label fl = fl.label
  let capacity fl = fl.cap

  let record fl ev =
    Mutex.lock fl.fm;
    fl.ring.(fl.n mod fl.cap) <- ev;
    fl.n <- fl.n + 1;
    Mutex.unlock fl.fm

  let note ?(args = []) ?(track = pipeline) fl name =
    record fl (Instant { name; track; ts = now_us (); args })

  let recorded fl =
    Mutex.lock fl.fm;
    let n = fl.n in
    Mutex.unlock fl.fm;
    n

  let dropped fl = max 0 (recorded fl - fl.cap)

  (** Retained events, oldest first (the last [capacity] recorded). *)
  let events fl =
    Mutex.lock fl.fm;
    let kept = min fl.n fl.cap in
    let start = fl.n - kept in
    let l = List.init kept (fun i -> fl.ring.((start + i) mod fl.cap)) in
    Mutex.unlock fl.fm;
    l

  (* Per-domain tap.  [taps] counts attached domains so the global
     [record] fast path stays one atomic load when no recorder is live. *)
  let key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
  let taps = Atomic.make 0

  let attach fl =
    (match Domain.DLS.get key with None -> Atomic.incr taps | Some _ -> ());
    Domain.DLS.set key (Some fl)

  let detach () =
    match Domain.DLS.get key with
    | None -> ()
    | Some _ ->
        Atomic.decr taps;
        Domain.DLS.set key None

  let with_attached fl f =
    attach fl;
    Fun.protect ~finally:detach f
end

(* Hot path (one call per replay instant/span): plain lock/unlock, no
   [locked] — the closure plus [Fun.protect] handler would double the
   cost of recording, and nothing between lock and unlock can raise. *)
let record ev =
  Mutex.lock lock;
  if !n_events >= !max_events then Atomic.incr dropped
  else begin
    events_rev := ev :: !events_rev;
    incr n_events
  end;
  Mutex.unlock lock;
  if Atomic.get Flight.taps > 0 then
    match Domain.DLS.get Flight.key with
    | Some fl -> Flight.record fl ev
    | None -> ()

let instant ?(args = []) ~track name =
  if !enabled then record (Instant { name; track; ts = now_us (); args })

(* Raw complete-event entry point for supervisors that time work they do
   not run inside a closure (a forked child's lifetime, observed from the
   parent's reaping loop).  [ts]/[dur] in µs on this collector's clock. *)
let complete ?(track = pipeline) ?(args = []) name ~ts ~dur =
  if !enabled then record (Complete { name; track; ts; dur; args })

(** [span ?track ?args name f] times [f ()] as a complete event.  Nested
    spans on the same track render as a hierarchy (Chrome trace viewers
    nest complete events by time containment).  Disabled cost: one branch. *)
let span ?(track = pipeline) ?(args = []) name f =
  if not !enabled then f ()
  else begin
    let ts = now_us () in
    Fun.protect
      ~finally:(fun () ->
        record (Complete { name; track; ts; dur = now_us () -. ts; args }))
      f
  end

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)

module Counter = struct
  type t = { name : string; help : string; value : int Atomic.t }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 32
  let order : string list ref = ref [] (* registration order, reversed *)

  let make ?(help = "") name =
    locked (fun () ->
        match Hashtbl.find_opt registry name with
        | Some c -> c
        | None ->
            let c = { name; help; value = Atomic.make 0 } in
            Hashtbl.replace registry name c;
            order := name :: !order;
            c)

  (* The guard lives here so call sites stay one-line; constructing
     per-call arguments (unlike a constant [t]) must be guarded by the
     caller. *)
  let incr c = if !enabled then Atomic.incr c.value
  let add c n = if !enabled then ignore (Atomic.fetch_and_add c.value n)
  let value c = Atomic.get c.value
end

(* ------------------------------------------------------------------ *)
(* Gauges                                                              *)

module Gauge = struct
  (* A current-level instrument (sessions active, queue depth): unlike a
     counter it moves both ways, and unlike an instant it is exported by
     the Prometheus endpoint.  Same atomic discipline as [Counter], but
     *not* gated on [enabled]: a gauge tracks live daemon state whose
     level must stay correct whether or not the event collector is on. *)
  type t = { name : string; help : string; value : int Atomic.t }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 16
  let order : string list ref = ref [] (* registration order, reversed *)

  let make ?(help = "") name =
    locked (fun () ->
        match Hashtbl.find_opt registry name with
        | Some g -> g
        | None ->
            let g = { name; help; value = Atomic.make 0 } in
            Hashtbl.replace registry name g;
            order := name :: !order;
            g)

  let incr g = Atomic.incr g.value
  let decr g = Atomic.decr g.value
  let add g n = ignore (Atomic.fetch_and_add g.value n)
  let set g n = Atomic.set g.value n
  let value g = Atomic.get g.value
end

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)

module Histogram = struct
  (* Raw samples (decimated 2:1 past [cap], keeping the distribution's
     shape) back the quantile estimates; the Prometheus exporter buckets
     them logarithmically (powers of two) at export time. *)
  type t = {
    name : string;
    help : string;
    mutable samples : float array;
    mutable n : int; (* live prefix of [samples] *)
    mutable count : int; (* total observations *)
    mutable sum : float;
  }

  let cap = 65_536

  let registry : (string, t) Hashtbl.t = Hashtbl.create 16
  let order : string list ref = ref []

  let make ?(help = "") name =
    locked (fun () ->
        match Hashtbl.find_opt registry name with
        | Some h -> h
        | None ->
            let h =
              { name; help; samples = Array.make 64 0.0; n = 0; count = 0; sum = 0.0 }
            in
            Hashtbl.replace registry name h;
            order := name :: !order;
            h)

  (* Hot path (one call per memory instruction when enabled): plain
     lock/unlock like [record] — no closure, no [Fun.protect].  The body
     cannot raise (growth is bounded by [cap]). *)
  let observe h x =
    if !enabled then begin
      Mutex.lock lock;
      h.count <- h.count + 1;
      h.sum <- h.sum +. x;
      if h.n = Array.length h.samples then
        if h.n < cap then begin
          let bigger = Array.make (2 * h.n) 0.0 in
          Array.blit h.samples 0 bigger 0 h.n;
          h.samples <- bigger
        end
        else begin
          (* decimate: keep every other sample *)
          let m = h.n / 2 in
          for i = 0 to m - 1 do
            h.samples.(i) <- h.samples.(2 * i)
          done;
          h.n <- m
        end;
      h.samples.(h.n) <- x;
      h.n <- h.n + 1;
      Mutex.unlock lock
    end

  let count h = h.count
  let sum h = h.sum
  let samples h = locked (fun () -> Array.sub h.samples 0 h.n)

  (** Linear-interpolated quantile over the retained samples
      ({!Stats.percentile}); 0 when nothing was observed. *)
  let quantile h q =
    let s = samples h in
    if Array.length s = 0 then 0.0 else Stats.percentile ~q s
end

(** [timed h f] observes [f]'s wall-clock latency (µs) into histogram [h];
    one branch when disabled. *)
let timed h f =
  if not !enabled then f ()
  else begin
    let t = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        Histogram.observe h ((Unix.gettimeofday () -. t) *. 1e6))
      f
  end

(* ------------------------------------------------------------------ *)
(* Snapshot + reset                                                    *)

type snapshot = {
  events : event list; (* chronological *)
  tracks : (track * string) list; (* registration order *)
  counters : Counter.t list; (* registration order *)
  gauges : Gauge.t list; (* registration order *)
  histograms : Histogram.t list;
  events_dropped : int;
  taken_us : float; (* collector clock when the snapshot was taken *)
}

(* A snapshot must be a *point-in-time* copy, not a bag of live handles:
   exporters walk a histogram's samples, count and sum in separate steps,
   and with live handles a concurrent [observe] between those reads skews
   the bucket rescale (the [+Inf] bucket would disagree with [_count]).
   Freezing every instrument under the same lock acquisition as the event
   log makes the whole snapshot internally consistent under load — the
   copies answer through the ordinary accessors, so exporters are
   oblivious. *)
let frozen_counters_locked () =
  List.rev_map
    (fun n ->
      let c = Hashtbl.find Counter.registry n in
      { c with Counter.value = Atomic.make (Atomic.get c.Counter.value) })
    !Counter.order

let frozen_gauges_locked () =
  List.rev_map
    (fun n ->
      let g = Hashtbl.find Gauge.registry n in
      { g with Gauge.value = Atomic.make (Atomic.get g.Gauge.value) })
    !Gauge.order

let frozen_histograms_locked () =
  List.rev_map
    (fun n ->
      let h = Hashtbl.find Histogram.registry n in
      { h with Histogram.samples = Array.sub h.Histogram.samples 0 h.Histogram.n })
    !Histogram.order

let tracks_locked () =
  Hashtbl.fold (fun id name acc -> (id, name) :: acc) track_names []
  |> List.sort compare

let snapshot () =
  locked (fun () ->
      {
        events = List.rev !events_rev;
        tracks = tracks_locked ();
        counters = frozen_counters_locked ();
        gauges = frozen_gauges_locked ();
        histograms = frozen_histograms_locked ();
        events_dropped = Atomic.get dropped;
        taken_us = now_us ();
      })

(** A snapshot whose events are the flight recorder's ring (and whose
    dropped count is the ring's overwrite count) but whose instruments
    are the global collector's current values — the "metrics snapshot"
    part of a flight dump. *)
let flight_snapshot fl =
  let events = Flight.events fl in
  let events_dropped = Flight.dropped fl in
  locked (fun () ->
      {
        events;
        tracks = tracks_locked ();
        counters = frozen_counters_locked ();
        gauges = frozen_gauges_locked ();
        histograms = frozen_histograms_locked ();
        events_dropped;
        taken_us = now_us ();
      })

(** Clear the event log, zero every counter and histogram, and restart the
    clock.  Registered instruments (and tracks) survive so cached handles
    in instrumented modules stay valid. *)
let reset () =
  locked (fun () ->
      events_rev := [];
      n_events := 0;
      Atomic.set dropped 0;
      t0 := Unix.gettimeofday ();
      Hashtbl.iter (fun _ (c : Counter.t) -> Atomic.set c.Counter.value 0)
        Counter.registry;
      Hashtbl.iter (fun _ (g : Gauge.t) -> Atomic.set g.Gauge.value 0)
        Gauge.registry;
      Hashtbl.iter
        (fun _ (h : Histogram.t) ->
          h.Histogram.n <- 0;
          h.Histogram.count <- 0;
          h.Histogram.sum <- 0.0)
        Histogram.registry)

(* Accessors for the exporters (the record internals stay private). *)
let track_id (t : track) = t
let counter_name (c : Counter.t) = c.Counter.name
let counter_help (c : Counter.t) = c.Counter.help
let gauge_name (g : Gauge.t) = g.Gauge.name
let gauge_help (g : Gauge.t) = g.Gauge.help
let histogram_name (h : Histogram.t) = h.Histogram.name
let histogram_help (h : Histogram.t) = h.Histogram.help
