(** CISC → RISC cracking (paper §III): each traced CISC instruction expands
    into one or more RISC micro-ops before feeding the SIMT simulator —
    e.g. an [add] with a memory operand becomes a load then an add; a
    read-modify-write destination becomes load, op, store.  [Io]/[Halt]
    crack to nothing. *)

(** Every static instruction of a program cracked once, in instruction-site
    order ([(fid, block, ioff)], as {!Coalesce.block_site} numbers them):
    the template table the warp-trace emitter ({!Warp_trace.Builder})
    indexes.  Memory micro-ops get their lane addresses when emitted. *)
val sites : Threadfuser_prog.Program.t -> Warp_trace.sites
