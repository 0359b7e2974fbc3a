(** Deterministic, LCG-seeded fault injector for thread traces: byte-level
    damage of the serialized form (bit flips, truncation) and event-level
    damage of decoded traces (drop/duplicate/reorder/truncate, address bit
    flips, unbalanced call/return and lock pairs, missing barrier
    arrivals).  A seed fully determines the corruption, so fuzz runs are
    replayable and CI-safe.  See docs/robustness.md for the fault model. *)

module Thread_trace = Threadfuser_trace.Thread_trace

type fault =
  | Drop_event
  | Duplicate_event
  | Swap_adjacent
  | Truncate_trace
  | Bitflip_address  (** lock / barrier / access address *)
  | Corrupt_block_id
  | Drop_return  (** unbalances call/return *)
  | Extra_return
  | Drop_unlock  (** lock never released *)
  | Drop_barrier  (** one lane misses an arrival *)

type applied = { fault : fault; tid : int; index : int }

(** [inject ~seed ?faults traces] applies up to [faults] (default 2)
    event-level faults to fresh copies of [traces]; faults without an
    applicable site are skipped. *)
val inject :
  seed:int ->
  ?faults:int ->
  Thread_trace.t array ->
  Thread_trace.t array * applied list

type byte_fault =
  | Bit_flip of { offset : int; bit : int }
  | Truncate of int  (** new length *)

(** [corrupt_bytes ~seed s] damages one byte (or truncates) the trace
    file bytes [s], deterministically from [seed]. *)
val corrupt_bytes : seed:int -> string -> string * byte_fault
