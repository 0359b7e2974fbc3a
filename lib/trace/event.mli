(** Dynamic per-thread trace events — the abstraction the paper's PIN-based
    tracer produces.

    A trace stores its events as flat columns ({!Thread_trace.t}); [t] is
    the boxed view of one event, for tests, fault injection, printing and
    error messages.

    Event order within a thread:
    - a [Block] is emitted when the basic block finishes executing and
      carries all memory accesses its instructions performed;
    - a block ending in a call is followed by [Call], the callee's events,
      [Return], then the caller's continuation block;
    - a block ending in a lock acquire is followed by (optionally a
      [Skip Spin]) then [Lock_acq] once the lock is held. *)

type access = {
  ioff : int;  (** instruction offset within the block *)
  addr : int;
  size : int;
  is_store : bool;
}

type skip_reason =
  | Io
  | Spin
  | Excluded  (** inside a function excluded from tracing (paper §III) *)

type t =
  | Block of {
      func : int;  (** function id in the assembled program *)
      block : int;  (** block id within the function *)
      n_instr : int;
      accesses : access array;  (** sorted by [ioff] *)
    }
  | Call of int  (** callee function id *)
  | Return
  | Lock_acq of int  (** lock address *)
  | Lock_rel of int
  | Barrier of int  (** team barrier passed (the address names the barrier) *)
  | Skip of { reason : skip_reason; n_instr : int }
      (** untraced instructions: I/O work or lock spinning (paper Fig. 8) *)

(** Shared empty array, to avoid allocating for the common no-access case. *)
val no_accesses : access array

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
