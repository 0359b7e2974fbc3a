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
  trace : Thread_trace.t;
  mutable pos : int;
  mutable skipped_io : int;
  mutable skipped_spin : int;
  mutable skipped_excluded : int;
}

let of_trace (trace : Thread_trace.t) =
  {
    tid = trace.tid;
    trace;
    pos = 0;
    skipped_io = 0;
    skipped_spin = 0;
    skipped_excluded = 0;
  }

let rec absorb_run c =
  let tr = c.trace in
  if c.pos < Array.length tr.events && tr.events.(c.pos) = Thread_trace.Skip
  then begin
    let n = tr.n_instr.(c.pos) and code = tr.arg.(c.pos) in
    if code = Thread_trace.skip_io then c.skipped_io <- c.skipped_io + n
    else if code = Thread_trace.skip_spin then
      c.skipped_spin <- c.skipped_spin + n
    else c.skipped_excluded <- c.skipped_excluded + n;
    c.pos <- c.pos + 1;
    absorb_run c
  end

let end_of_trace = Event.Skip { reason = Event.Io; n_instr = 0 }

let event c =
  absorb_run c;
  if c.pos < Array.length c.trace.events then Thread_trace.get c.trace c.pos
  else end_of_trace

let at_end c =
  absorb_run c;
  c.pos >= Array.length c.trace.events
