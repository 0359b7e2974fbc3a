(** Storage faults: seeded torn-write / bit-flip / partial-rename
    injection for the artifact cache's commit path.  Decisions are a pure
    function of [(seed, entry id)], so chaos campaigns replay exactly.
    See the "Artifact integrity" section of docs/robustness.md. *)

type action =
  | No_fault
  | Torn_write of float
      (** commit only this fraction (0 < f < 1) of the blob's bytes *)
  | Bit_flip  (** flip one seeded bit of the committed blob *)
  | Partial_rename
      (** lose the index append: the object lands, the journal line
          does not *)

val action_name : action -> string

type plan
(** Torn-write, bit-flip and partial-rename percentages drawn in that
    order (see {!Fault_plan}). *)

val plan :
  ?seed:int -> ?torn_pct:int -> ?flip_pct:int -> ?partial_pct:int -> unit -> plan
(** Raises [Invalid_argument] on percentages outside 0..100. *)

val decide : plan -> id:string -> action
(** The fault for committing entry [id]; pure and replayable. *)

val mangle : action -> id:string -> string -> string
(** The damaged byte image a faulted commit writes (identity for
    [No_fault] and [Partial_rename]). *)
