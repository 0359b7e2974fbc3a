(** Incremental TFPACK1 reader.

    {!Pack.decode} reads a whole trace file at once; this module reads
    the same bytes as they arrive, one {!Pack} block (one thread) at a
    time.  It reads the [serve] session wire, which is exactly a TFPACK1
    file, and [Analyzer.Session]'s spill file, a run of blocks with no
    magic and no count.

    The decoder is push-based and total: [feed] it arbitrary byte chunks
    (any chunking, byte-at-a-time included) and [next] either yields a
    decoded thread, asks for more input, or reports typed corruption.  A
    truncated or hostile stream can only ever produce [Corrupt] — never an
    exception, an unbounded buffer or a giant allocation: a block whose
    declared payload exceeds the decoder's bound is rejected from its
    header alone, before any payload is buffered, and the header's thread
    count is only counted down, never sized from.  Every block's CRC-32
    is checked before it decodes. *)

module Tf_error := Threadfuser_util.Tf_error

val encode : Thread_trace.t array -> string
(** {!Pack.encode}, kept under this name only because the end-to-end
    benchmark ([bench/e2e/tfbench.ml]) calls it. *)

type t
(** Decoder state: a bounded reassembly buffer plus a parse position. *)

val create : ?max_block_bytes:int -> ?header:bool -> unit -> t
(** [max_block_bytes] (default 16 MiB) bounds a single block's declared
    payload; [header:false] decodes a bare block sequence (a session's
    spill file), which never ends by itself. *)

type step =
  | Need_more  (** the buffered bytes end mid-block; feed more *)
  | Thread of Thread_trace.t
  | End_of_stream  (** the header's count of blocks was consumed *)
  | Corrupt of Tf_error.diagnostic
      (** typed, sticky: every later [next] returns the same diagnostic;
          bytes after the last block are corrupt too *)

val feed : t -> ?off:int -> ?len:int -> string -> unit
(** Append [s.[off .. off+len-1]] (default: the rest of [s]) to the
    reassembly buffer.  Cheap; no parsing happens until [next], which
    decodes each block in place.  Raises [Invalid_argument] unless
    [0 <= off], [0 <= len] and [len <= String.length s - off]. *)

val next : t -> step

val buffered : t -> int
(** Bytes fed but not yet consumed by [next] — bounded by the block bound
    plus one chunk, the backpressure quantity. *)

val bytes_fed : t -> int
(** Total bytes ever fed. *)
