(** Memory-coalescing model (paper §III, Fig. 4): the active lanes' accesses
    of one warp-level memory instruction merge into the minimal set of
    32-byte transactions, counted separately per address segment
    (stack/heap/global) for the paper's Fig. 10 breakdown. *)

(** Distinct 32 B lines covered by [(addr, size)] accesses. *)
val count_transactions : (int * int) list -> int

type seg_counters = {
  mutable ld_txns : int;
  mutable st_txns : int;
  mutable ld_issues : int;  (** warp-level load instructions in the segment *)
  mutable st_issues : int;
  mutable ld_lanes : int;  (** per-lane accesses *)
  mutable st_lanes : int;
}

(** Per-access-site attribution: transactions a site generated beyond the
    perfectly-coalesced minimum, split by address segment.  A site is one
    static instruction [(fid, block, ioff)]; the table is dense, indexed
    through [block_site]. *)
type site_counters = {
  mutable a_issues : int;  (** warp-level load/store instructions at the site *)
  mutable a_txns : int;  (** 32 B transactions generated *)
  mutable a_min_txns : int;  (** perfectly-coalesced minimum *)
  mutable a_stack_excess : int;  (** excess transactions per segment *)
  mutable a_heap_excess : int;
  mutable a_global_excess : int;
}

type seg_scratch
(** Internal staging for the allocation-free record path. *)

type t = {
  stack : seg_counters;
  heap : seg_counters;
  global : seg_counters;
  block_site : int array array;
      (** per function, per block: site index of the block's first
          instruction, so instruction [ioff] of block [b] of function
          [f] is site [block_site.(f).(b) + ioff]; entry [n_blocks] is the
          function's end *)
  sites : site_counters array;  (** one per static instruction *)
  xs : seg_scratch array;
  mutable lines_buf : int array;
  evt_seen : (int, unit) Hashtbl.t;
}

(** An empty model with one site per static instruction of the program. *)
val create : Threadfuser_prog.Program.t -> t

(** [iter_sites t f] calls [f ~fid ~block ~ioff counters] for every site,
    in [(fid, block, ioff)] order, untouched sites included. *)
val iter_sites :
  t -> (fid:int -> block:int -> ioff:int -> site_counters -> unit) -> unit

(** Reset the per-warp instant-thinning state; {!Emulator.run_warp}
    calls this when a warp's replay starts.  Unless [Obs.full_events] is
    on, the "serialized access" instant fires once per (warp, site) —
    counters still count every occurrence. *)
val new_warp : t -> unit

(** Perfectly-coalesced floor for an access set: the 32 B lines needed if
    the same bytes were laid out contiguously (at least 1). *)
val min_transactions : (int * int) list -> int

(** Record one warp-level memory instruction ([lanes] = active lanes'
    [(addr, size)] pairs); returns the total transactions generated.
    [site] (an index, see [block_site]) is the instruction site the
    instruction and its excess transactions are attributed to. *)
val record : t -> is_store:bool -> site:int -> (int * int) list -> int

(** Allocation-free twin of {!record} over parallel arrays
    [addrs]/[sizes][0..n-1] — the replay hot path ({!Emulator.count_block}
    stages each instruction's accesses into reusable buffers).  Identical
    accounting and return value. *)
val record_lanes :
  t ->
  is_store:bool ->
  site:int ->
  n:int ->
  int array ->
  int array ->
  int

(** Fold [src]'s counters into [dst] (shard reduction of the
    domain-parallel replay); every field is a sum.  Both must have been
    created for the same program. *)
val merge_into : dst:t -> t -> unit

(** Total (transactions, warp-level memory instructions) over all segments. *)
val totals : t -> int * int

(** Mean 32 B transactions per warp-level load/store in a segment. *)
val txns_per_instr : seg_counters -> float
