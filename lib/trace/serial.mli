(** The LEB128 varint codec (over the two's-complement bit pattern) and
    event tags of the TFPACK1 container ({!Pack}, {!Stream}). *)

exception Corrupt of string
(** Raised by the readers on malformed or truncated input. *)

(** {2 Low-level varint primitives} *)

type reader = { data : string; mutable pos : int; lim : int }
(** A cursor over [data.[pos .. lim-1]]: every read is bounded by [lim],
    so a reader over one block of a larger buffer cannot read past it. *)

val reader : ?pos:int -> ?lim:int -> string -> reader
(** [reader ?pos ?lim data] reads [data] from [pos] (default 0) up to
    [lim] (default [String.length data]).  Raises [Invalid_argument]
    unless [0 <= pos <= lim <= String.length data]. *)

val write_uint : Buffer.t -> int -> unit
(** Every OCaml int round-trips, negatives included (at 9 bytes). *)

val read_uint : reader -> int
(** A varint below [lim]; raises [Corrupt] when it is truncated at [lim]
    or longer than any 63-bit encoding. *)

val read_count : reader -> min_bytes:int -> string -> int
(** Bounded length header: reads a varint count and raises [Corrupt]
    unless every counted item can pay for at least [min_bytes] of the
    remaining input — an untrusted count can never drive a giant
    allocation.  "Remaining" is measured to [lim].  [what] names the
    counted thing in the error. *)

(** {2 Event tags} (shared with {!Pack}) *)

val kinds : Thread_trace.kind array
(** Event kinds by tag: [kinds.(tag_of_kind k) = k]. *)

val tag_of_kind : Thread_trace.kind -> int
(** The event tag both containers use (0 Block ... 6 Barrier). *)

val read_skip_code : reader -> int
(** A skip reason code; raises [Corrupt] unless
    {!Thread_trace.is_skip_code}. *)
