(** A reading position in one thread's dynamic trace.

    The warp emulator drives one cursor per lane.  [Skip] events carry no
    control flow; they are absorbed lazily whenever the cursor is inspected
    and accumulated into the skip counters (paper Fig. 8), so a warp that
    aborts mid-replay reports exactly the skips its lanes reached. *)

type t = {
  tid : int;
  events : Threadfuser_trace.Event.t array;
  mutable pos : int;
  mutable skipped_io : int;
  mutable skipped_spin : int;
  mutable skipped_excluded : int;
}

val of_trace : Threadfuser_trace.Thread_trace.t -> t

(** The value {!peek} returns at the end of the trace: a [Skip], which
    {!peek} never returns otherwise. *)
val end_of_trace : Threadfuser_trace.Event.t

(** The next non-[Skip] event without consuming it (the skips before it
    are absorbed), or {!end_of_trace}.  Returns the stored event; nothing
    is allocated. *)
val peek : t -> Threadfuser_trace.Event.t

(** [peek], consuming the event it returns. *)
val next : t -> Threadfuser_trace.Event.t

val at_end : t -> bool
