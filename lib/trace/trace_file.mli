(** The one trace-file loader: every command that reads a captured trace
    set goes through here, so a TFTRACE1 file ({!Serial}) and a TFPACK1
    file ({!Pack}) are accepted alike, keyed on their magic. *)

val of_string : string -> Thread_trace.t array
(** Decode either container.  Raises {!Serial.Corrupt} on damage —
    TFPACK1 additionally on a per-block CRC-32 mismatch — and on input
    that carries neither magic. *)

val load : string -> Thread_trace.t array
(** [load path] — {!of_string} over the file's bytes; [Sys_error] on I/O
    failure. *)
