(** Builder DSL for surface programs.

    Every combinator returns a [code] fragment (a list of surface items);
    fragments compose by list operations ([seq], [List.concat]), and
    {!func} flattens a fragment list into a function:

    {[
      Build.(
        func "kernel"
          [
            mov (reg 1) (imm 0);
            for_up ~i:2 ~from_:(imm 0) ~below:(reg 3)
              [ add (reg 1) (mem ~base:2 ()) ];
            ret;
          ])
    ]}

    Structured control-flow combinators generate fresh labels from a global
    counter; label names never affect semantics. *)

open Threadfuser_isa

type code = Surface.item list

(** Fresh label with the given prefix (also used by compiler passes). *)
val fresh : string -> string

(** {2 Operands} *)

val reg : int -> Operand.t

(** The stack-pointer register (r15) as an operand. *)
val sp : Operand.t

(** The thread-local-storage base register (r14) as an operand. *)
val tls : Operand.t

val imm : int -> Operand.t

(** [mem ~base ~index ~scale ~disp ()] — [base]/[index] are register
    numbers; address = base + index*scale + disp. *)
val mem : ?base:int -> ?index:int -> ?scale:int -> ?disp:int -> unit -> Operand.t

(** {2 Instructions} — each returns a one-instruction fragment. *)

val ins : (string, string) Instr.t -> code

val label : string -> code

val mov : ?w:Width.t -> Operand.t -> Operand.t -> code

val cmov : Cond.t -> Operand.t -> Operand.t -> code

val lea : int -> Operand.t -> code

val binop : Op.binop -> ?w:Width.t -> Operand.t -> Operand.t -> code

val add : ?w:Width.t -> Operand.t -> Operand.t -> code

val sub : ?w:Width.t -> Operand.t -> Operand.t -> code

val mul : ?w:Width.t -> Operand.t -> Operand.t -> code

val div : ?w:Width.t -> Operand.t -> Operand.t -> code

val rem : ?w:Width.t -> Operand.t -> Operand.t -> code

val and_ : ?w:Width.t -> Operand.t -> Operand.t -> code

val or_ : ?w:Width.t -> Operand.t -> Operand.t -> code

val xor : ?w:Width.t -> Operand.t -> Operand.t -> code

val shl : ?w:Width.t -> Operand.t -> Operand.t -> code

val shr : ?w:Width.t -> Operand.t -> Operand.t -> code

val sar : ?w:Width.t -> Operand.t -> Operand.t -> code

val min_ : ?w:Width.t -> Operand.t -> Operand.t -> code

val max_ : ?w:Width.t -> Operand.t -> Operand.t -> code

val fadd : ?w:Width.t -> Operand.t -> Operand.t -> code

val fsub : ?w:Width.t -> Operand.t -> Operand.t -> code

val fmul : ?w:Width.t -> Operand.t -> Operand.t -> code

val fdiv : ?w:Width.t -> Operand.t -> Operand.t -> code

val neg : ?w:Width.t -> Operand.t -> code

val not_ : ?w:Width.t -> Operand.t -> code

val fsqrt : ?w:Width.t -> Operand.t -> code

val cmp : ?w:Width.t -> Operand.t -> Operand.t -> code

val jcc : Cond.t -> string -> code

val jmp : string -> code

val call : string -> code

val ret : code

val halt : code

(** The operand names the lock: memory operands denote their {e address}
    (like [lea]); registers/immediates denote their value. *)
val lock_acquire : Operand.t -> code

val lock_release : Operand.t -> code

val atomic_rmw : Op.binop -> ?w:Width.t -> Operand.t -> Operand.t -> code

(** Untraced input work costing [operand] instructions (paper Fig. 8). *)
val io_in : Operand.t -> code

(** OpenMP-style team barrier named by the operand (like a lock). *)
val barrier : Operand.t -> code

val io_out : Operand.t -> code

(** {2 Composition and structured control flow} *)

val seq : code list -> code

(** [if_ c a b ~then_ ?else_ ()] — run [then_] when [a c b] holds. *)
val if_ :
  ?w:Width.t ->
  Cond.t ->
  Operand.t ->
  Operand.t ->
  then_:code list ->
  ?else_:code list ->
  unit ->
  code

(** Top-tested loop: runs while [a c b] holds. *)
val while_ : ?w:Width.t -> Cond.t -> Operand.t -> Operand.t -> code list -> code

(** Counted loop over register [i] from [from_] (inclusive) to [below]
    (exclusive), step 1. *)
val for_up :
  ?w:Width.t -> i:int -> from_:Operand.t -> below:Operand.t -> code list -> code

(** Infinite loop; exit with an explicit [jmp] or [ret] inside the body. *)
val forever : code list -> code

(** {2 Functions} *)

val func : string -> code list -> Surface.func
