(** Aligned text tables and CSV emission for the experiment harness. *)

type align = L | R

type t

val create : (string * align) list -> t

(** Raises [Invalid_argument] if the cell count does not match the
    column count. *)
val add_row : t -> string list -> unit

val cell_float : ?digits:int -> float -> string

(** [cell_pct 0.5] is ["50.0%"]. *)
val cell_pct : ?digits:int -> float -> string

val cell_int : int -> string

val render : Format.formatter -> t -> unit

(** [render] to stdout; when a CSV directory is set and [name] is given,
    also writes [<dir>/<name>.csv]. *)
val print : ?name:string -> t -> unit

(** Set the CSV artifact directory used by [print ~name]. *)
val set_csv_dir : string option -> unit

val to_csv : t -> string
