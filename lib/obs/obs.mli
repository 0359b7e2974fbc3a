(** In-process observability: timed spans, instant events on named tracks,
    counters and histograms feeding one global collector that is safe to
    hammer from multiple domains (counters are atomic; the event log,
    registries and histograms are mutex-guarded).

    Disabled (the default) every hook costs one load-and-branch; call
    sites that build arguments must guard them with [if !Obs.enabled].
    Export a run with {!Trace_export} (Chrome trace-event JSON for
    ui.perfetto.dev) or {!Prom} (Prometheus text exposition).
    See docs/observability.md for the span model and track conventions. *)

(** Global collector switch.  Exposed as a [ref] so hot paths can guard
    argument construction with a single load. *)
val enabled : bool ref

val set_enabled : bool -> unit

(** Per-occurrence replay instants.  Off (the default), the emulator
    thins divergence/memory/sync instants to the first occurrence per
    (warp, site) — counter totals stay exact, and because the thinning
    state is warp-confined the event totals are identical at every
    domain count.  On, every dynamic occurrence is recorded
    ([threadfuser profile] turns this on for timeline debugging). *)
val full_events : bool ref

val set_full_events : bool -> unit

(** Memoized [string_of_int] for small non-negative ints (lane counts,
    block/function ids): enabled-path hooks can build their arguments
    without allocating.  Falls back to [string_of_int] past the cap. *)
val itos : int -> string

(** {1 Tracks} — Perfetto rows.  [track name] is idempotent. *)

type track

val track : string -> track

val pipeline : track  (** framework phase spans *)

val replay_track : track  (** per-warp replay spans *)

val divergence_track : track  (** split / reconverge instants *)

val memory_track : track  (** uncoalesced-access instants *)

val sync_track : track  (** lock-serialization instants *)

val blame_track : track  (** per-site bottleneck-attribution instants *)

(** {1 Spans and instants} *)

(** [span ?track ?args name f] times [f ()] as a complete event (exception
    safe).  Nested spans on one track render hierarchically. *)
val span :
  ?track:track -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

(** Zero-duration event on a track. *)
val instant : ?args:(string * string) list -> track:track -> string -> unit

(** [complete name ~ts ~dur] records a complete event whose interval was
    measured externally ([ts]/[dur] in µs on this collector's clock, see
    {!now_us}) — for supervisors timing work that does not run inside a
    closure, e.g. a forked child observed from the parent. *)
val complete :
  ?track:track ->
  ?args:(string * string) list ->
  string ->
  ts:float ->
  dur:float ->
  unit

(** Collector clock: µs since the last {!reset}. *)
val now_us : unit -> float

(** {1 Counters} — monotonic within a run, atomic, reset by {!reset}. *)

module Counter : sig
  type t

  val make : ?help:string -> string -> t
  (** Find-or-create in the global registry; safe at module-init time. *)

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

(** {1 Gauges} — current levels (sessions active, queue depth), atomic and
    bidirectional.  Unlike counters they are {e not} gated on {!enabled}:
    they track live daemon state whose level must stay correct whether or
    not the event collector is on. *)

module Gauge : sig
  type t

  val make : ?help:string -> string -> t
  (** Find-or-create in the global registry; safe at module-init time. *)

  val incr : t -> unit
  val decr : t -> unit
  val add : t -> int -> unit
  val set : t -> int -> unit
  val value : t -> int
end

(** {1 Histograms} — distributions (latencies in µs, sizes in units of the
    caller's choosing).  Quantiles come from retained raw samples via
    {!Threadfuser_stats.Stats.percentile}; the Prometheus exporter buckets
    them logarithmically at export time. *)

module Histogram : sig
  type t

  val make : ?help:string -> string -> t
  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float

  val samples : t -> float array
  (** Retained (possibly decimated) samples, oldest first. *)

  val quantile : t -> float -> float
  (** [quantile h q], [0 <= q <= 1]; 0 when empty. *)
end

val timed : Histogram.t -> (unit -> 'a) -> 'a
(** [timed h f] observes [f]'s wall-clock latency in µs into [h]
    (exception safe); one branch when disabled. *)

(** {1 Snapshot / lifecycle} *)

type event =
  | Complete of {
      name : string;
      track : track;
      ts : float;  (** µs since {!reset} *)
      dur : float;  (** µs *)
      args : (string * string) list;
    }
  | Instant of {
      name : string;
      track : track;
      ts : float;
      args : (string * string) list;
    }

type snapshot = {
  events : event list;  (** chronological *)
  tracks : (track * string) list;
  counters : Counter.t list;  (** registration order *)
  gauges : Gauge.t list;  (** registration order *)
  histograms : Histogram.t list;
  events_dropped : int;  (** events past the cap (see {!set_max_events}) *)
  taken_us : float;  (** collector clock ({!now_us}) at snapshot time *)
}

val snapshot : unit -> snapshot
(** A {e point-in-time copy}: every instrument in the returned record is
    frozen under one lock acquisition, so exporters reading a histogram's
    samples, count and sum in separate steps stay mutually consistent even
    while other domains keep observing. *)

(** {1 Flight recorder} — a bounded ring of recent events, independent of
    the global event log.  One instance per serve session or suite job:
    the ring keeps the {e last} [capacity] events, giving a post-mortem
    timeline for exactly the runs you can't reproduce.  {!Flight.record}
    works whether or not the collector is enabled (supervisors note
    lifecycle events explicitly); a recorder {!Flight.attach}ed to the
    current domain additionally taps every event the enabled collector
    records on that domain. *)

module Flight : sig
  type t

  val create : ?capacity:int -> string -> t
  (** [create ?capacity label]; default capacity 2048.  Raises
      [Invalid_argument] on a capacity < 1. *)

  val label : t -> string
  val capacity : t -> int

  val record : t -> event -> unit
  (** Append, overwriting the oldest once full.  Never gated on
      {!enabled}; safe from any domain. *)

  val note :
    ?args:(string * string) list -> ?track:track -> t -> string -> unit
  (** [note fl name] records an instant stamped {!now_us} into the ring. *)

  val recorded : t -> int
  (** Total events ever recorded (≥ what the ring retains). *)

  val dropped : t -> int
  (** Events overwritten: [max 0 (recorded - capacity)]. *)

  val events : t -> event list
  (** Retained events, oldest first. *)

  val attach : t -> unit
  (** Tap the calling domain: every event the enabled collector records
      on this domain is also appended to [fl]. *)

  val with_attached : t -> (unit -> 'a) -> 'a
  (** [attach]/run/[detach], exception safe. *)
end

val flight_snapshot : Flight.t -> snapshot
(** A snapshot whose events (and dropped count) come from the flight
    recorder's ring but whose instruments are the global collector's
    current frozen values — the payload of a flight-recorder dump. *)

val set_max_events : int -> unit
(** Event-log bound (default 500_000); excess events are dropped and
    counted in [events_dropped]. *)

val reset : unit -> unit
(** Clear events, zero instruments, restart the clock.  Registered
    counters/histograms/tracks survive, so cached handles stay valid. *)

(**/**)

val track_id : track -> int
val counter_name : Counter.t -> string
val counter_help : Counter.t -> string
val gauge_name : Gauge.t -> string
val gauge_help : Gauge.t -> string
val histogram_name : Histogram.t -> string
val histogram_help : Histogram.t -> string
