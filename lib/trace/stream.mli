(** Chunked streaming serialization of thread traces.

    Where {!Pack} stores a complete trace set at rest, this module frames
    one thread per bounded frame so a trace set can be produced,
    shipped and consumed incrementally — the wire format of the
    [threadfuser serve] session protocol and the format of
    [Analyzer.Session]'s spill file.  A session keeps its newest threads
    decoded and encodes them here only when they pass half its budget.

    The decoder is push-based and total: [feed] it arbitrary byte chunks
    (any chunking, byte-at-a-time included) and [next] either yields a
    decoded frame, asks for more input, or reports typed corruption.  A
    truncated or hostile stream can only ever produce [Corrupt] — never an
    exception, an unbounded buffer or a giant allocation: frames larger
    than the decoder's bound are rejected from their length header alone,
    before any payload is buffered. *)

module Tf_error := Threadfuser_util.Tf_error

val magic : string
(** Stream header ("TFSTREAM1"), distinct from {!Pack}'s "TFPACK1". *)

(** {1 Encoding} *)

val add_thread : Buffer.t -> Thread_trace.t -> unit
(** One framed thread: tag, payload length, then tid + events in
    {!Serial}'s event codec. *)

val encode : Thread_trace.t array -> string
(** [magic] + one thread frame each + the end frame (bytes after it are a
    protocol error). *)

(** {1 Incremental decoding} *)

type t
(** Decoder state: a bounded reassembly buffer plus a parse position. *)

val create : ?max_frame_bytes:int -> ?expect_magic:bool -> unit -> t
(** [max_frame_bytes] (default 16 MiB) bounds a single frame's declared
    payload; [expect_magic:false] decodes a bare frame sequence (a
    session's spill file, which carries no header). *)

type step =
  | Need_more  (** the buffered bytes end mid-frame; feed more *)
  | Frame of Thread_trace.t
  | End_of_stream  (** the end frame was consumed *)
  | Corrupt of Tf_error.diagnostic
      (** typed, sticky: every later [next] returns the same diagnostic *)

val feed : t -> ?off:int -> ?len:int -> string -> unit
(** Append [s.[off .. off+len-1]] (default: the rest of [s]) to the
    reassembly buffer.  Cheap; no parsing happens until [next], which
    decodes each frame in place.  Raises [Invalid_argument] unless
    [0 <= off], [0 <= len] and [len <= String.length s - off]. *)

val next : t -> step

val buffered : t -> int
(** Bytes fed but not yet consumed by [next] — bounded by the frame bound
    plus one chunk, the backpressure quantity. *)

val bytes_fed : t -> int
(** Total bytes ever fed. *)

val decode : string -> (Thread_trace.t array, Tf_error.diagnostic) result
(** One-shot convenience over a complete in-memory stream. *)
