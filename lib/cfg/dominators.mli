(** Iterative dominator computation (Cooper–Harvey–Kennedy).  Pass the
    reversed graph to obtain post-dominators, as the IPDOM tables do.
    Nodes are integers in [0, n); nodes unreachable from [entry] get
    idom = -1. *)

type t = {
  idom : int array;  (** [idom.(entry) = entry]; -1 for unreachable nodes *)
  rpo_index : int array;  (** reverse-postorder position; -1 unreachable *)
}

val compute :
  n:int -> entry:int -> succs:(int -> int list) -> preds:(int -> int list) -> t

(** [dominates t a b] — does [a] dominate [b] (w.r.t. the computed entry)? *)
val dominates : t -> int -> int -> bool
