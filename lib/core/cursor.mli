(** A reading position in one thread's dynamic trace.

    The warp emulator drives one cursor per lane.  [Skip] events carry no
    control flow; they are absorbed lazily whenever the cursor is inspected
    and accumulated into the skip counters (paper Fig. 8), so a warp that
    aborts mid-replay reports exactly the skips its lanes reached.

    The cursor reads the trace's columns by index: the event at [pos] is
    [trace.events.(pos)] with [trace]'s column entries at [pos].  The
    emulator keeps the inlined read of the kind column itself and calls
    {!absorb_run} only at a Skip. *)

type t = {
  tid : int;
  trace : Threadfuser_trace.Thread_trace.t;
  mutable pos : int;
  mutable skipped_io : int;
  mutable skipped_spin : int;
  mutable skipped_excluded : int;
}

val of_trace : Threadfuser_trace.Thread_trace.t -> t

val absorb_run : t -> unit
(** Absorb the Skips from [pos] on into the skip counters, leaving [pos]
    at the next non-[Skip] event or the end of the trace. *)

val event : t -> Threadfuser_trace.Event.t
(** The next non-[Skip] event as an {!Threadfuser_trace.Event.t} view (the
    skips before it are absorbed), or a [Skip] at the end of the trace:
    for error messages only. *)

val at_end : t -> bool
