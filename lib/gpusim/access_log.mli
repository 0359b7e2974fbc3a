(** Per-unit access logs and their deterministic merge, shared by the
    GPU and CPU timing models' shared-level reductions.

    Each unit (an SM, a core) appends [(cycle, value)] pairs to its own log
    in nondecreasing cycle order; {!merge} then visits the union of all
    logs in the total order [(cycle, unit, emission order)] — the order a
    stable sort of the concatenated logs on [(cycle, unit)] gives — with
    int comparisons and no allocation per entry. *)

type t

val create : unit -> t

(** [add t ~ts v] appends [v] at cycle [ts] (not below the last [ts]). *)
val add : t -> ts:int -> int -> unit

(** [merge logs f] calls [f ts unit v] for every entry of every log in
    [(ts, unit, emission)] order, [unit] being the log's index in [logs],
    then empties every log. *)
val merge : t array -> (int -> int -> int -> unit) -> unit
