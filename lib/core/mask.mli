(** Warp active masks: up to {!max_lanes} lanes packed in an [int]. *)

type t = private int

val max_lanes : int

val empty : t

(** [full w] — all of the first [w] lanes active; raises outside
    [1, max_lanes]. *)
val full : int -> t

val singleton : int -> t

val mem : t -> int -> bool

val add : t -> int -> t

val remove : t -> int -> t

val union : t -> t -> t

val inter : t -> t -> t

val is_empty : t -> bool

(** Population count (number of active lanes). *)
val count : t -> int

(** Active lane indices, ascending. *)
val to_list : t -> int list

val of_list : int list -> t

val pp : warp_size:int -> Format.formatter -> t -> unit
