(** The shared LEB128 varint codec (over the two's-complement bit
    pattern) and event codec that {!Pack} and {!Stream} frame, plus the
    read-only decoder for legacy TFTRACE1 trace files.  ThreadFuser writes
    TFPACK1 only; {!Trace_file} is the loader that accepts both. *)

exception Corrupt of string
(** Raised by the readers on malformed or truncated input. *)

val of_string : string -> Thread_trace.t array
(** Decode a legacy TFTRACE1 trace set. *)

(** {2 Low-level varint primitives} *)

type reader = { data : string; mutable pos : int }

val read_byte : reader -> int
(** One raw byte; raises [Corrupt] at end of input. *)

val write_uint : Buffer.t -> int -> unit
(** Every OCaml int round-trips, negatives included (at 9 bytes). *)

val read_uint : reader -> int

val read_count : reader -> min_bytes:int -> string -> int
(** Bounded length header: reads a varint count and raises [Corrupt]
    unless every counted item can pay for at least [min_bytes] of the
    remaining input — an untrusted count can never drive a giant
    allocation.  [what] names the counted thing in the error. *)

(** {2 Event codec} (shared with {!Stream}'s framed format) *)

val kinds : Thread_trace.kind array
(** Event kinds by tag: [kinds.(tag_of_kind k) = k]. *)

val tag_of_kind : Thread_trace.kind -> int
(** The one-byte event tag both codecs write (0 Block ... 6 Barrier). *)

val write_event : Buffer.t -> Thread_trace.t -> int -> unit
(** [write_event buf t i] appends event [i] of [t]. *)

val read_events : reader -> tid:int -> int -> Thread_trace.t
(** [read_events r ~tid n] decodes [n] events into a fresh trace.
    Raises [Corrupt] on a bad tag, bad skip reason or truncation. *)

val read_skip_code : reader -> int
(** A skip reason code; raises [Corrupt] unless
    {!Thread_trace.is_skip_code}. *)
