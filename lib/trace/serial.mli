(** Binary serialization of trace sets (LEB128 varints over the
    two's-complement bit pattern), so traces can be captured once and
    re-analyzed under many warp configurations — the paper's trace files. *)

exception Corrupt of string
(** Raised by the readers on malformed or truncated input. *)

val to_buffer : Thread_trace.t array -> Buffer.t

val to_string : Thread_trace.t array -> string

val of_string : string -> Thread_trace.t array

val to_file : string -> Thread_trace.t array -> unit

(** {2 Low-level varint primitives} (exposed for tests) *)

type reader = { data : string; mutable pos : int }

val read_byte : reader -> int
(** One raw byte; raises [Corrupt] at end of input. *)

val write_uint : Buffer.t -> int -> unit

val write_int : Buffer.t -> int -> unit

val read_uint : reader -> int

val read_int : reader -> int

val read_count : reader -> min_bytes:int -> string -> int
(** Bounded length header: reads a varint count and raises [Corrupt]
    unless every counted item can pay for at least [min_bytes] of the
    remaining input — an untrusted count can never drive a giant
    allocation.  [what] names the counted thing in the error. *)

(** {2 Event codec} (shared with {!Stream}'s framed format) *)

val write_event : Buffer.t -> Event.t -> unit

val read_event : reader -> Event.t
(** Raises [Corrupt] on a bad tag, bad skip reason or truncation. *)
