(** The IR runtime library linked into every workload program — the
    services a C++ workload gets from libc/libstdc++, written in the
    mini-ISA so their instructions and synchronization appear in traces
    exactly like real library code does under PIN:

    - [__malloc]/[__free]: in [Glibc] mode a single global mutex guards the
      heap (the paper's §V-B allocator-serialization observation); in
      [Concurrent] mode each thread bumps a private arena derived from its
      TLS base.
    - [__rand]: per-thread 48-bit LCG seeded from the TLS address.
    - [__hash]: FNV-1a over a byte range ([r0] = address, [r1] = length).
    - [__memcpy]: byte copy ([r0] = dst, [r1] = src, [r2] = length).

    All runtime functions clobber only r0..r5. *)

type alloc_mode = Glibc | Concurrent

val arena_bytes : int

(** Host-side initialization of the runtime globals; run before tracing. *)
val init : Threadfuser_machine.Memory.t -> unit

(** Runtime functions for an allocator mode; appended to every workload's
    function list before assembly. *)
val funcs : alloc_mode -> Threadfuser_prog.Surface.t
