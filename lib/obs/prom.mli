(** Prometheus text-exposition export of an {!Obs.snapshot}: counters,
    log-bucketed histograms with [_sum]/[_count], and [_p50]/[_p95]/[_p99]
    companion gauges.  This is what [--metrics-out] writes. *)

(** Sanitize a metric name to [[a-zA-Z_:][a-zA-Z0-9_:]*] (invalid
    characters become ['_']). *)
val sanitize : string -> string

(** Escape HELP text per the exposition format: [\\] for backslash and
    [\n] for newline. *)
val escape_help : string -> string

(** Escape a label value (lives inside double quotes): backslash, double
    quote and newline. *)
val escape_label_value : string -> string

val version : string
(** The version string exported in [tf_build_info]. *)

val to_string : Obs.snapshot -> string
(** Besides the snapshot's instruments, every exposition carries
    [tf_obs_events_dropped_total] (even at 0), [tf_build_info] (labels
    from {!build_info}, value 1) and [tf_uptime_seconds] (the snapshot's
    collector-clock age). *)

val to_file : string -> Obs.snapshot -> unit
