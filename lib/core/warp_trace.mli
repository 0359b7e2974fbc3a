(** Warp-level RISC instruction traces — ThreadFuser's simulator-integration
    format (paper §III, "Generating warp-based instruction traces").

    Each micro-op is executed by a warp under an active mask; CISC
    instructions have been cracked by {!Crack}; memory micro-ops carry
    one address per lane with stack accesses routed to [Local] space and
    heap/global to [Global].

    {b Flat form.}  A trace in memory is columns, not boxed entries.  The
    static part of every distinct micro-op (class and registers) is a
    {!template}, stored once in [templates].  Each warp keeps three int
    columns with one entry per micro-op — template index, active mask,
    and the offset of its memory record
    (-1 for a micro-op without one) — and a memory record in [mem_recs] is
    [3 + warp_size] ints: store flag, access size, space, then one address
    per lane (-1 for an inactive lane).  Templates are deduplicated and
    numbered in first-use order (warp order, then op order), so two
    traces with the same micro-ops are equal under [=].  {!entry} and
    {!mop} are only a view ({!get}, {!to_entries}, {!of_entries}). *)

type space = Local | Global

(** Register ids for dependence tracking: 0..15 architectural, {!flags_reg},
    {!temp_reg}; -1 = none. *)
val flags_reg : int

val temp_reg : int

(** Size of the scoreboard register file (architectural + virtual). *)
val reg_file_size : int

(** {2 View} *)

type mem_op = {
  is_store : bool;
  size : int;
  space : space;
  addrs : int array;  (** one per lane; -1 for inactive lanes *)
}

type mop = {
  cls : Threadfuser_isa.Opclass.t;
  dst : int;  (** destination register, -1 if none *)
  srcs : int array;
  mem : mem_op option;
}

type entry = { mask : Mask.t; op : mop }

(** {2 Flat form} *)

(** The static part of a micro-op. *)
type template = {
  t_cls : Threadfuser_isa.Opclass.t;
  t_dst : int;  (** destination register, -1 if none *)
  t_srcs : int array;
}

type warp = {
  warp_id : int;
  op_tpl : int array;  (** per op: index into [templates] *)
  op_mask : Mask.t array;  (** per op: active mask *)
  op_mem : int array;  (** per op: offset of its record in [mem_recs], or -1 *)
  mem_recs : int array;
      (** memory records, [3 + warp_size] ints each: store flag (0/1),
          size, space ({!space_code}), then one address per lane *)
}

type t = { warp_size : int; templates : template array; warps : warp array }

(** A memory record's space field: [Global] is 0, [Local] is 1. *)
val space_code : space -> int

(** Micro-ops of one warp. *)
val n_ops : warp -> int

(** Total micro-ops across all warps. *)
val total_ops : t -> int

(** [get t ~warp i] — micro-op [i] of [t.warps.(warp)], boxed. *)
val get : t -> warp:int -> int -> entry

(** Every warp as [(warp_id, entries)], in warp order. *)
val to_entries : t -> (int * entry array) array

(** Build the flat form from boxed warps.  Every memory micro-op's
    [addrs] must have [warp_size] lanes; raises [Invalid_argument]
    otherwise.  [of_entries ~warp_size:t.warp_size (to_entries t) = t]. *)
val of_entries : warp_size:int -> (int * entry array) array -> t

(** How each static instruction of a program cracks into micro-ops
    (built by {!Crack.sites}).  Instruction site [s] expands to the slots
    [site_off.(s) .. site_off.(s + 1) - 1]; slot [k] is [slots.(k)].
    A memory slot takes its lane addresses from the instruction's loads
    ([slot_src.(k) = 1]) or its stores ([2]), with access size
    [slot_size.(k)]; other slots have [slot_src.(k) = 0]. *)
type sites = {
  slots : template array;
  site_off : int array;
  slot_src : int array;
  slot_size : int array;
}

(** Emission into the flat columns.  A replaying domain owns an
    {!emitter}: it emits one warp at a time into scratch columns reused
    from warp to warp, and {!seal} stores the warp's exact columns.
    Emitters of disjoint warps may run on different domains. *)
module Builder : sig
  type warp_trace := t

  type t

  val create : warp_size:int -> n_warps:int -> sites -> t

  type emitter

  val emitter : t -> emitter

  (** Begin emitting warp [warp] (discarding anything unsealed). *)
  val start : emitter -> warp:int -> unit

  (** [emit e ~site mask ~n_ld ld_lane ld_addr ~n_st st_lane st_addr]
      appends the micro-ops of instruction site [site].  Its loads are the
      lanes [ld_lane.(0 .. n_ld - 1)] at addresses [ld_addr.(...)], its
      stores likewise; a lane with several accesses keeps its first
      (a negative address is overwritten by a later one).  A memory slot
      whose access set is empty raises [Invalid_argument] before anything
      of the site is appended. *)
  val emit :
    emitter ->
    site:int ->
    Mask.t ->
    n_ld:int ->
    int array ->
    int array ->
    n_st:int ->
    int array ->
    int array ->
    unit

  (** Store the current warp's columns in the builder. *)
  val seal : emitter -> unit

  (** The trace: every warp, sealed or empty.  Call once, after every
      emitter has sealed. *)
  val finish : t -> warp_trace
end
