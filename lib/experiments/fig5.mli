(** Paper Fig. 5: correlation of predictions against the SIMT-hardware
    oracle across gcc-style optimization levels — (a) SIMT efficiency,
    (b) 32 B memory transactions. *)

type sample = {
  workload : string;
  level : Threadfuser_compiler.Compiler.level;
  predicted_eff : float;
  hardware_eff : float;
  predicted_txns : float;  (** per kilo-instruction *)
  hardware_txns : float;
  predicted_total : int;  (** absolute transaction counts (log-log plot) *)
  hardware_total : int;
}

val samples : Ctx.t -> sample list

type level_stats = {
  level : Threadfuser_compiler.Compiler.level;
  eff_mae : float;
  eff_corr : float;
  eff_bias : float;  (** mean signed error; positive = overestimate *)
  txn_mape : float;
  txn_corr : float;
}

val per_level : sample list -> level_stats list

val run : Ctx.t -> level_stats list
