(** The dynamic trace of one CPU thread in flat columnar form, plus
    summary statistics.

    A trace stores no boxed events, and the replay loop reads few memory
    streams: the words one event or one access needs sit side by side.
    Event [i] is the [i]th entry of the kind column [events], the triple
    [ev.(3i)], [ev.(3i + 1)], [ev.(3i + 2)] (argument, block id, first
    access) and [n_instr.(i)].  [ev] ends with one spare triple
    [(0, 0, n)], where [n] is the access count, so Block [i]'s accesses
    are always accesses [ev.(3i + 2)] to [ev.(3i + 5) - 1].  Access [j]
    is the triple [acc.(3j)], [acc.(3j + 1)], [acc.(3j + 2)] (instruction
    offset, address, size) and bit [j] of [store]; a Block's accesses are
    in ioff order.

    Every entry is a whole word, never a bit field, so any value a
    decoder reads reaches {!Validate} unchanged.  Columns are exactly as
    long as their contents, and every field a kind does not use is 0, so
    two traces of the same events are equal under [=].

    {!Event.t} is the view of one event ({!get}, {!to_events},
    {!of_events}); it is for tests, fault injection, printing and error
    messages, never for a replay or decode loop. *)

(** One event's kind.  All constructors are constant, so a [kind array]
    is an unboxed int array; the order is {!Pack}'s tag numbering. *)
type kind = Block | Call | Return | Lock_acq | Lock_rel | Skip | Barrier

type t = {
  tid : int;
  events : kind array;  (** the kind column: one entry per event *)
  ev : int array;
      (** [3 * (length + 1)] words: per event, its argument (Block:
          function id; Call: callee; Lock_acq, Lock_rel, Barrier: address;
          Skip: reason code ({!skip_io} ...)), its block id (Block only)
          and its first access; then [(0, 0, access count)] *)
  n_instr : int array;  (** Block and Skip: instruction count *)
  acc : int array;
      (** [3 * n_accesses] words: per access, its instruction offset
          within its block, its address and its size *)
  store : Bytes.t;  (** access [j] is a store iff bit [j] is set *)
}

val length : t -> int
(** Number of events, Skips included. *)

val n_accesses : t -> int

val is_store : t -> int -> bool
(** Whether access [j] is a store. *)

val max_access_size : int
(** The largest access size a trace may carry (255): what the machine
    tracer's 8-bit size field holds.  The ISA's accesses are at most 8
    bytes; [Validate] and the warp-trace reader reject anything larger. *)

val heap_bytes : t -> int
(** The exact heap bytes of the trace: the record and every column,
    header words included.  Empty columns are the runtime's shared empty
    array and count 0.  What [Analyzer.Session] charges a decoded trace
    against its budget. *)

(** {2 Skip reason codes}

    The one mapping between a Skip's {!Event.skip_reason} and the code its
    argument word in [ev] holds, which both wire formats carry too. *)

val skip_io : int
val skip_spin : int
val skip_excluded : int

val is_skip_code : int -> bool

(** {2 The [Event.t] view} *)

val get : t -> int -> Event.t
(** Event [i], boxed. *)

val to_events : t -> Event.t array

val of_events : int -> Event.t array -> t
(** [of_events tid events]; [of_events t.tid (to_events t) = t]. *)

type stats = {
  traced_instrs : int;  (** instructions inside [Block] events *)
  skipped_io : int;
  skipped_spin : int;
  skipped_excluded : int;
  blocks : int;
  loads : int;
  stores : int;
  lock_ops : int;  (** acquires + releases *)
  barriers : int;
}

val stats : t -> stats

(** How every decoder makes a trace: it appends events with unboxed
    calls, then {!finish} cuts the columns to size.  (The machine's
    tracer uses {!Log}, which writes the columns in one pass.)  A Block
    declares how many accesses it owns ([n_acc]); the accesses
    themselves are appended with {!access} in block order, before or
    after their Block, so a decoder can fill the access columns from a
    separate stream. *)
module Builder : sig
  type trace := t

  type t

  val create : events:int -> ?accesses:int -> int -> t
  (** [create ~events tid] holds at most [events] events; every caller
      knows the count from its input.  The access columns grow as needed.
      Created with the exact counts, a builder never regrows and
      {!finish} hands its columns over without a copy. *)

  val block : t -> func:int -> block:int -> n_instr:int -> n_acc:int -> unit

  val call : t -> int -> unit

  val return : t -> unit

  val lock_acq : t -> int -> unit

  val lock_rel : t -> int -> unit

  val barrier : t -> int -> unit

  val skip : t -> int -> int -> unit
  (** [skip b code n_instr]; raises [Invalid_argument] unless
      [is_skip_code code]. *)

  val access : t -> ioff:int -> addr:int -> size:int -> is_store:bool -> unit

  val claimed : t -> int
  (** Sum of the [n_acc] the Blocks so far declared. *)

  val reserve_accesses : t -> int -> unit
  (** Grow the access columns to hold [n] accesses in total, in one
      allocation. *)

  val finish : t -> trace
  (** Raises [Invalid_argument] unless every appended access is owned by
      exactly one Block. *)
end

(** The machine tracer's per-thread log: it records each event and
    access as it happens, in chunks that never move, then {!finish}
    writes the whole trace once into columns of their exact sizes.
    Accesses are appended before the Block that owns them; [block]
    claims every access appended since the previous Block. *)
module Log : sig
  type trace := t

  type t

  val create : unit -> t

  val access : t -> ioff:int -> addr:int -> size:int -> is_store:bool -> unit
  (** [size] must be at most {!max_access_size}. *)

  val block : t -> func:int -> block:int -> n_instr:int -> unit

  val call : t -> int -> unit

  val return : t -> unit

  val lock_acq : t -> int -> unit

  val lock_rel : t -> int -> unit

  val skip : t -> int -> int -> unit
  (** [skip log code n_instr]; [code] is one of {!skip_io} ... *)

  val barrier : t -> int -> unit

  val finish : t -> tid:int -> trace
end

val pp : Format.formatter -> t -> unit
