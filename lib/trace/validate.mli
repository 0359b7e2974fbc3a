(** Semantic validation of decoded thread traces against the trace
    contract (docs/ARCHITECTURE.md §1): call/return balance, lock
    acquire/release pairing, block/function ids in program range, access
    offsets vs [n_instr], and cross-thread team-barrier consistency.
    Produces typed diagnostics ({!Threadfuser_util.Tf_error}); see
    docs/robustness.md for the taxonomy and quarantine semantics. *)

module Tf_error = Threadfuser_util.Tf_error

(** Program shape used to range-check ids (supplied by the analyzer;
    this library does not depend on [lib/prog]). *)
type bounds = {
  func_count : int;
  block_count : int -> int;  (** blocks of a function *)
  block_instrs : (int -> int -> int) option;
      (** instruction count of (func, block), for [n_instr] cross-checks *)
}

(** Skips all range checks (no program at hand). *)
val no_bounds : bounds

(** Per-thread checks only. *)
val thread :
  ?bounds:bounds -> Thread_trace.t -> Tf_error.diagnostic list

(** The thread's team-barrier address sequence (the vote cast in
    {!barrier_check}). *)
val barrier_seq : Thread_trace.t -> int list

(** Cross-thread barrier majority vote over precomputed sequences;
    [tids.(i)] labels [seqs.(i)].  [Analyzer.Session] uses this directly
    (it retains barrier sequences, not whole traces); {!all} is built on
    it, so both paths vote — and tie-break — identically. *)
val barrier_check :
  tids:int array -> int list array -> Tf_error.diagnostic list

(** Per-thread checks plus cross-thread barrier consistency. *)
val all :
  ?bounds:bounds -> Thread_trace.t array -> Tf_error.diagnostic list

(** [verdict ~tids diags] is [(bad, keep)], keyed by tid: a tid is bad
    when some [Error]-severity diagnostic in [diags] names it.  [bad]
    holds, per entry of [tids] (in order) carrying a bad tid, the tid and
    its first such diagnostic; [keep.(i)] is whether [tids.(i)] is clean.
    Every thread sharing a bad tid is excluded, including a clean one.
    Linear in [tids] and [diags]. *)
val verdict :
  tids:int array ->
  Tf_error.diagnostic list ->
  (int * Tf_error.diagnostic) list * bool array

(** [quarantine traces] is [(diagnostics, bad)]: {!all} plus the [bad]
    half of its {!verdict}. *)
val quarantine :
  ?bounds:bounds ->
  Thread_trace.t array ->
  Tf_error.diagnostic list * (int * Tf_error.diagnostic) list
