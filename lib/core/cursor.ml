(** A reading position in one thread's dynamic trace.

    The warp emulator drives one cursor per lane.  [Skip] events (I/O, lock
    spinning) carry no control flow; they are absorbed transparently whenever
    the cursor is inspected and accumulated into the skip counters (paper
    Fig. 8 reports their share).  Absorption is lazy: a skip is counted only
    once the cursor is inspected at or past it, so a warp that aborts
    mid-replay reports exactly the skips its lanes reached. *)

module Event = Threadfuser_trace.Event
module Thread_trace = Threadfuser_trace.Thread_trace

type t = {
  tid : int;
  events : Event.t array;
  mutable pos : int;
  mutable skipped_io : int;
  mutable skipped_spin : int;
  mutable skipped_excluded : int;
}

let of_trace (trace : Thread_trace.t) =
  {
    tid = trace.tid;
    events = trace.events;
    pos = 0;
    skipped_io = 0;
    skipped_spin = 0;
    skipped_excluded = 0;
  }

(* [peek] returns no other [Skip]: the skips in a trace are absorbed before
   it looks. *)
let end_of_trace = Event.Skip { reason = Event.Io; n_instr = 0 }

let rec absorb_run c =
  if c.pos < Array.length c.events then
    match c.events.(c.pos) with
    | Event.Skip { reason; n_instr } ->
        (match reason with
        | Event.Io -> c.skipped_io <- c.skipped_io + n_instr
        | Event.Spin -> c.skipped_spin <- c.skipped_spin + n_instr
        | Event.Excluded -> c.skipped_excluded <- c.skipped_excluded + n_instr);
        c.pos <- c.pos + 1;
        absorb_run c
    | Event.Block _ | Event.Call _ | Event.Return | Event.Lock_acq _
    | Event.Lock_rel _ | Event.Barrier _ ->
        ()

(* Kept apart from the recursive [absorb_run] so it inlines: the common
   case, no skip at the read position, is then one bounds check and one
   tag test. *)
let[@inline] absorb_skips c =
  if c.pos < Array.length c.events then
    match Array.unsafe_get c.events c.pos with
    | Event.Skip _ -> absorb_run c
    | Event.Block _ | Event.Call _ | Event.Return | Event.Lock_acq _
    | Event.Lock_rel _ | Event.Barrier _ ->
        ()

let peek c =
  absorb_skips c;
  if c.pos < Array.length c.events then c.events.(c.pos) else end_of_trace

let next c =
  let e = peek c in
  if c.pos < Array.length c.events then c.pos <- c.pos + 1;
  e

let at_end c =
  absorb_skips c;
  c.pos >= Array.length c.events
