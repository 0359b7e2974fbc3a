(** Warp-trace files — the on-disk form of ThreadFuser's simulator
    integration (paper §III): a line-oriented text format carrying one
    cracked micro-op per line with its active mask and per-lane addresses.
    Round-trips exactly.

    The reader treats every token as untrusted: malformed numbers fail as
    {!Corrupt} (never [Failure]), and warp/op/src counts are bounded by
    the input actually present before any allocation, so a corrupt header
    cannot trigger a multi-GB [Array.init].  Register ids outside
    [[-1, Warp_trace.reg_file_size)] and access sizes above
    [Thread_trace.max_access_size] are {!Corrupt} too: the simulator
    indexes its scoreboard by the one and walks 32 B lines over the
    other. *)

exception Corrupt of string

val to_string : Warp_trace.t -> string

val of_string : string -> Warp_trace.t

val to_file : string -> Warp_trace.t -> unit

val of_file : string -> Warp_trace.t
