(** Address-space layout of the emulated machine.

    {v
      0x0001_0000 .. 0x0fff_ffff   globals (workload input data, locks)
      0x1000_0000 .. 0x5fff_ffff   heap (managed by the IR runtime library)
      0x6000_0000 .. top           per-thread stacks, highest tid lowest
    v}

    Each thread owns a [stack_size] region; its stack pointer starts at the
    region's top and grows down, and the bottom [tls_size] bytes serve as
    thread-local storage (reached through the reserved [tls] register).
    Addresses are classified into the three segments the paper's memory
    divergence study distinguishes (heap vs stack; globals reported with the
    heap as "global memory" when generating SIMT traces). *)

type segment = Global | Heap | Stack

let heap_base = 0x1000_0000

let stack_region_base = 0x6000_0000

let stack_size = 0x10000 (* 64 KiB per thread *)

let tls_size = 0x800

(** Exclusive top of thread [tid]'s stack; the initial stack pointer. *)
let stack_top tid = stack_region_base + ((tid + 1) * stack_size)

let stack_low tid = stack_region_base + (tid * stack_size)

(** Base of thread [tid]'s thread-local storage area. *)
let tls_base tid = stack_low tid

let segment_of addr : segment =
  if addr >= stack_region_base then Stack
  else if addr >= heap_base then Heap
  else Global

let segment_name = function
  | Global -> "global"
  | Heap -> "heap"
  | Stack -> "stack"
