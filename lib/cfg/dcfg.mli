(** Per-function Dynamic Control Flow Graphs, built from observed traces
    rather than static code (paper §III): edges exist only if some thread
    took them.  Each function gets a virtual exit node (id [n_blocks]) that
    every invocation's last block points to, forcing divergent threads to
    reconverge at function end like real SIMT hardware. *)

type t = {
  func : int;
  n_blocks : int;
  exit_node : int;  (** = [n_blocks] *)
  succs : int list array;  (** length [n_blocks + 1] *)
  preds : int list array;
  observed : bool array;  (** blocks that appeared in some trace *)
}

val entry_node : int

val n_nodes : t -> int

(** Incremental builder over any number of thread traces. *)
module Builder : sig
  type dcfg := t

  type t

  val create : Threadfuser_prog.Program.t -> t

  val feed : t -> Threadfuser_trace.Thread_trace.t -> unit

  (** One DCFG per program function (empty graph if never observed).
      Counts the graphs and their edges into the [tf_dcfg_*] counters. *)
  val finish : t -> dcfg array
end

(** Build the per-function DCFGs of a whole trace set in one pass. *)
val of_traces :
  Threadfuser_prog.Program.t -> Threadfuser_trace.Thread_trace.t array -> t array

val pp : Format.formatter -> t -> unit
