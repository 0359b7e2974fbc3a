(** TFPACK1: the compact columnar, delta-encoded binary trace container,
    and the only thread-trace format ThreadFuser reads or writes.

    Tags, delta-coded block ids and access addresses each get their own
    varint column, and every per-thread block carries a CRC-32 trailer
    over its payload, so torn or bit-flipped payload bytes are detected
    before any event reaches an analyzer.  The CRC does not cover the
    block header ([tid], [payload_len]): a flipped [tid] decodes as
    another thread's trace.  (A flipped [payload_len] moves where the
    trailer is read, so it nearly always fails the CRC.)  Encoding is
    deterministic: the same traces always produce the same bytes.

    All decode errors raise {!Corrupt} (the CLI's typed exit-2 path).
    The varint codec below is the container's; the report cache's
    TFBLOB1 blobs reuse it.  The encoder writes the same varints
    straight into one growable buffer, each payload staged once in a
    scratch buffer that the block's CRC is then taken over. *)

val magic : string
(** ["TFPACK1"] — the container's leading bytes. *)

exception Corrupt of string
(** Raised by every reader here on malformed or truncated input. *)

(** {1 Varint codec}

    LEB128 over the two's-complement bit pattern. *)

type reader = { data : string; mutable pos : int; lim : int }
(** A read position over [data.[pos .. lim-1]]: every read is bounded by
    [lim], so a reader over one block of a larger buffer cannot read past
    it. *)

val reader : ?pos:int -> ?lim:int -> string -> reader
(** [reader ?pos ?lim data] reads [data] from [pos] (default 0) up to
    [lim] (default [String.length data]).  Raises [Invalid_argument]
    unless [0 <= pos <= lim <= String.length data]. *)

val write_uint : Buffer.t -> int -> unit
(** Every OCaml int round-trips, negatives included (at 9 bytes). *)

val read_uint : reader -> int
(** A varint below [lim]; raises {!Corrupt} when it is truncated at [lim]
    or longer than any 63-bit encoding. *)

val read_count : reader -> min_bytes:int -> string -> int
(** Bounded length header: reads a varint count and raises {!Corrupt}
    unless every counted item can pay for at least [min_bytes] of the
    remaining input — an untrusted count can never drive a giant
    allocation.  "Remaining" is measured to [lim].  [what] names the
    counted thing in the error. *)

val encode : Thread_trace.t array -> string
(** [magic], the thread count, then one {!add_block} per trace. *)

(** {1 Blocks}

    A block is one thread: [tid], [payload_len], the payload and its
    CRC-32 trailer.  Every block decodes on its own, so {!Stream} reads
    the same blocks incrementally: the [serve] wire is a whole TFPACK1
    file, and a session's spill file is a run of blocks with no magic
    and no count. *)

val add_block : Buffer.t -> Thread_trace.t -> unit

val decode_block : tid:int -> string -> pos:int -> lim:int -> Thread_trace.t
(** [decode_block ~tid s ~pos ~lim] decodes the payload [s.[pos .. lim-1]]
    of a block whose header held [tid] and whose 4-byte CRC trailer
    follows at [lim] (the caller has checked it is there).  The CRC is
    checked over the payload where it sits, then the payload decodes in
    place, every read bounded by [lim].  Raises {!Corrupt} on a
    negative [tid], a CRC mismatch or a malformed payload. *)

val decode : string -> Thread_trace.t array
(** Decodes each block in place with {!decode_block}, straight into the
    flat columns, each allocated once at its exact size.  No payload is
    copied, and no read crosses the block's end.  Each call is one
    [decode] span and feeds the [tf_trace_{threads,bytes}_decoded_total]
    counters ({!Stream} decodes blocks without either).  Raises
    {!Corrupt} on bad magic, truncation, CRC mismatch, overlong
    varints, lying counts (every count, and the sum of a payload's access
    counts, is bounded by the bytes left in its block before anything is
    sized from it) or trailing bytes. *)

val to_file : string -> Thread_trace.t array -> unit

val of_file : string -> Thread_trace.t array
(** Raises {!Corrupt} like {!decode}; [Sys_error] on I/O failure. *)
