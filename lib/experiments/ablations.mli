(** Ablation studies for DESIGN.md's design choices: batching policy,
    reconvergence discipline, lock-serialization policy, GPU scheduler. *)

val batching : Ctx.t -> unit

val reconvergence : Ctx.t -> unit

val scheduler : Ctx.t -> unit

(** All of the above. *)
val run : Ctx.t -> unit
