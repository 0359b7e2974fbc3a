(** The one trace-file loader: every command that reads a captured trace
    set goes through here.  It accepts the TFPACK1 files ThreadFuser
    writes ({!Pack}) and legacy TFTRACE1 files ({!Serial}), keyed on their
    magic.  Each decode is one [decode] span and feeds the
    [tf_trace_{threads,bytes}_decoded_total] counters. *)

val of_string : string -> Thread_trace.t array
(** Decode either container.  Raises {!Serial.Corrupt} on damage —
    TFPACK1 additionally on a per-block CRC-32 mismatch — and on input
    that carries neither magic. *)

val load : string -> Thread_trace.t array
(** [load path] — {!of_string} over the file's bytes; [Sys_error] on I/O
    failure. *)
