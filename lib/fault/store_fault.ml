(** Storage faults: seeded durability-failure injection for the artifact
    cache (lib/cache).

    Where {!Injector} damages trace bytes and {!Exec_fault} damages job
    execution, this module damages the *commit path* of the
    content-addressed store: a blob can be torn mid-write (only a prefix
    reaches the object file), a committed byte can be flipped at rest, or
    the rename/journal pair can be half-applied (object without index
    line, or index line without object) — the three crash shapes an
    fsync+rename protocol must survive.

    Decisions are a pure function of [(plan seed, entry id)] via
    {!Threadfuser_util.Lcg.derive} stream splitting, so a chaos campaign
    replays byte-for-byte, exactly like the exec-fault campaigns. *)

module Lcg = Threadfuser_util.Lcg

type action =
  | No_fault
  | Torn_write of float
      (** commit only this fraction (0 < f < 1) of the blob's bytes *)
  | Bit_flip  (** flip one bit of the committed blob, position seeded *)
  | Partial_rename
      (** crash between rename and journal append: the object lands, the
          index line does not *)

let action_name = function
  | No_fault -> "none"
  | Torn_write _ -> "torn-write"
  | Bit_flip -> "bit-flip"
  | Partial_rename -> "partial-rename"

type plan = {
  seed : int;
  arms : action Fault_plan.t;
      (** torn write, then bit flip, then partial rename *)
}

let plan ?(seed = 1) ?(torn_pct = 0) ?(flip_pct = 0) ?(partial_pct = 0) () =
  {
    seed;
    arms =
      Fault_plan.make ~who:"Store_fault.plan"
        [
          (* the cut fraction comes from the same stream: replayable, but
             not the same cut for every torn entry *)
          ( torn_pct,
            fun g -> Torn_write (float_of_int (Lcg.int_range g 1 99) /. 100.)
          );
          (flip_pct, fun _ -> Bit_flip);
          (partial_pct, fun _ -> Partial_rename);
        ];
  }

(** [decide plan ~id] — the fault for committing entry [id].  Pure: the
    same pair always yields the same action. *)
let decide p ~id =
  Fault_plan.draw p.arms
    ~stream:(Lcg.derive ~seed:p.seed ~index:(Lcg.hash_string id))
    ~none:No_fault

(** [mangle action ~id bytes] — the damaged image of [bytes] under
    [action] (identity for [No_fault] and [Partial_rename], whose damage
    is protocol-level, not byte-level).  The flip position is seeded by
    [id], so campaigns replay. *)
let mangle action ~id bytes =
  match action with
  | No_fault | Partial_rename -> bytes
  | Torn_write f ->
      let n = String.length bytes in
      let keep = max 0 (min (n - 1) (int_of_float (float_of_int n *. f))) in
      String.sub bytes 0 keep
  | Bit_flip ->
      if String.length bytes = 0 then bytes
      else begin
        let g =
          Lcg.create (Lcg.derive ~seed:Lcg.(hash_string id) ~index:1)
        in
        let pos = Lcg.int g (String.length bytes) in
        let bit = Lcg.int g 8 in
        let b = Bytes.of_string bytes in
        Bytes.set b pos
          (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
        Bytes.to_string b
      end
