(** The "SIMT-CPU" design-point sweep (paper §I/§V-B): general-purpose SIMT
    hardware between a multicore CPU and a GPU, evaluated on the
    microservice suite. *)

type cell = { speedup : float }

type row = { workload : string; cells : (string * cell) list }

val series : Ctx.t -> row list

val build : row list -> Threadfuser_report.Table.t

val run : Ctx.t -> row list
