(** Flat byte-addressed memory, lazily paged (4 KiB pages allocated on
    first touch).  All multi-byte accesses are little-endian; reads of
    untouched memory return zero. *)

type t

val create : unit -> t

val load_byte : t -> int -> int

val store_byte : t -> int -> int -> unit

(** [load t ~width addr] — W1/W2/W4 zero-extend; W8 is the full word. *)
val load : t -> width:Threadfuser_isa.Width.t -> int -> int

(** [store t ~width addr v] truncates [v] to the width. *)
val store : t -> width:Threadfuser_isa.Width.t -> int -> int -> unit

(** {2 Host-side helpers for workload setup} *)

val load_i64 : t -> int -> int

val store_i64 : t -> int -> int -> unit

(** [store_array64 t addr a] lays out [a] as consecutive 64-bit words. *)
val store_array64 : t -> int -> int array -> unit

val load_array64 : t -> int -> int -> int array

val store_string : t -> int -> string -> unit

(** Number of 4 KiB pages touched so far. *)
val touched_pages : t -> int
