(** The dynamic trace of one CPU thread in flat columnar form, plus
    summary statistics.

    A trace stores no boxed events.  Event [i] is the [i]th entry of the
    kind column [events] together with entry [i] of the argument columns;
    Block [i]'s memory accesses are entries [acc_off.(i)] to
    [acc_off.(i + 1) - 1] of the access columns, in [ioff] order.
    Columns are exactly as long as their contents, and every field a
    kind does not use is 0, so two traces of the same events are equal
    under [=].

    {!Event.t} is the view of one event ({!get}, {!to_events},
    {!of_events}); it is for tests, fault injection, printing and error
    messages, never for a replay or decode loop. *)

(** One event's kind.  All constructors are constant, so a [kind array]
    is an unboxed int array; the order is {!Serial}'s tag numbering. *)
type kind = Block | Call | Return | Lock_acq | Lock_rel | Skip | Barrier

type t = {
  tid : int;
  events : kind array;  (** the kind column: one entry per event *)
  arg : int array;
      (** Block: function id; Call: callee; Lock_acq, Lock_rel, Barrier:
          address; Skip: reason code ({!skip_io} ...) *)
  block : int array;  (** Block: block id within the function *)
  n_instr : int array;  (** Block and Skip: instruction count *)
  acc_off : int array;  (** [n_events + 1] access-column offsets *)
  ioff : int array;  (** access: instruction offset within its block *)
  addr : int array;
  size : int array;
  store : Bytes.t;  (** access [j] is a store iff bit [j] is set *)
}

val length : t -> int
(** Number of events, Skips included. *)

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
    [arg] entry holds, which both wire formats carry too. *)

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

(** The one way a trace is made: the machine's tracer and every decoder
    append events with unboxed calls, then {!finish} cuts the columns to
    size.  A Block declares how many accesses it owns ([n_acc]); the
    accesses themselves are appended with {!access} in block order, before
    or after their Block, so a decoder can fill the access columns from a
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

val pp : Format.formatter -> t -> unit
