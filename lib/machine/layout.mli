(** Address-space layout of the emulated machine.

    {v
      0x0001_0000 .. 0x0fff_ffff   globals (workload inputs, locks)
      0x1000_0000 .. 0x5fff_ffff   heap (managed by the IR runtime library)
      0x6000_0000 .. top           per-thread stacks
    v}

    Each thread owns a [stack_size] region whose bottom [tls_size] bytes are
    thread-local storage (reached through the reserved [tls] register).
    Addresses classify into the segments the paper's memory-divergence
    study distinguishes (Fig. 10). *)

type segment = Global | Heap | Stack

val heap_base : int

val stack_region_base : int

val stack_size : int

val tls_size : int

(** Exclusive top of thread [tid]'s stack; its initial stack pointer. *)
val stack_top : int -> int

val stack_low : int -> int

(** Base of thread [tid]'s thread-local storage area. *)
val tls_base : int -> int

val segment_of : int -> segment

val segment_name : segment -> string
