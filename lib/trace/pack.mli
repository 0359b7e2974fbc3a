(** TFPACK1: the compact columnar, delta-encoded binary trace container.

    Smaller than TFTRACE1 on real traces (tags, delta-coded block ids and
    access addresses each get their own varint column) and safer at rest:
    every per-thread block carries a CRC-32 trailer, so torn or bit-flipped
    bytes are detected before any event reaches an analyzer.  Encoding is
    deterministic: the same traces always produce the same bytes.  It is
    the only trace format ThreadFuser writes; {!Trace_file}
    also reads legacy TFTRACE1 files.

    All decode errors raise {!Serial.Corrupt} (the CLI's typed exit-2
    path). *)

val magic : string
(** ["TFPACK1"] — the container's leading bytes, for format sniffing. *)

val encode : Thread_trace.t array -> string

val decode : string -> Thread_trace.t array
(** Decodes straight into the flat columns, each allocated once at its
    exact size.  Raises {!Serial.Corrupt} on bad magic, truncation, CRC
    mismatch, overlong varints, lying counts (every count, and the sum of
    a payload's access counts, is bounded by the bytes left before
    anything is sized from it) or trailing bytes. *)

val to_file : string -> Thread_trace.t array -> unit

val of_file : string -> Thread_trace.t array
(** Raises {!Serial.Corrupt} like {!decode}; [Sys_error] on I/O failure. *)
