(** Paper Fig. 6: projected GPU speedup vs the multicore CPU baseline,
    with the CUDA-trace series as validation. *)

val gpu_config : Threadfuser_gpusim.Config.t

val cpu_config : Threadfuser_cpusim.Cpusim.config

type row = {
  workload : string;
  has_cuda : bool;
  speedup_tf : float;
  speedup_cuda : float option;
  gpu : Threadfuser_gpusim.Gpusim.stats;
}

(** (GPU seconds, simulator stats) for a traced run's warp trace.
    [domains] parallelizes both the analyzer replay and the SM partition;
    results are byte-identical at any value. *)
val gpu_seconds :
  ?domains:int ->
  Threadfuser_workloads.Workload.traced ->
  float * Threadfuser_gpusim.Gpusim.stats

val cpu_seconds : ?domains:int -> Threadfuser_workloads.Workload.traced -> float

val series : Ctx.t -> row list

(** Mean relative execution-time error between the series. *)
val time_error : row list -> float

val run : Ctx.t -> row list * float
