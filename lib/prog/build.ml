(** Builder DSL for surface programs.

    Every combinator returns a [code] fragment (a list of surface items);
    fragments compose with [seq] / list concatenation, so workloads read as
    structured programs:

    {[
      func "kernel" [
        mov (reg 1) (imm 0);
        for_up ~i:2 ~from_:(imm 0) ~below:(reg 3) [
          add (reg 1) (mem ~base:2 ());
        ];
        ret;
      ]
    ]}

    Structured control-flow combinators ([if_], [while_], [for_up], …)
    generate fresh labels from a global counter; label names never affect
    semantics. *)

open Threadfuser_isa

type code = Surface.item list

let gensym_state = ref 0

let fresh prefix =
  incr gensym_state;
  Printf.sprintf ".%s%d" prefix !gensym_state

(* ------------------------------------------------------------------ *)
(* Operands                                                            *)

let reg i = Operand.Reg (Reg.r i)

let sp = Operand.Reg Reg.sp

let tls = Operand.Reg Reg.tls

let imm n = Operand.Imm n

(** [mem ~base ~index ~scale ~disp ()] builds a memory operand; [base] and
    [index] are register numbers. *)
let mem ?base ?index ?(scale = 1) ?(disp = 0) () =
  let base = Option.map Reg.r base in
  let index = Option.map (fun i -> (Reg.r i, scale)) index in
  Operand.Mem (Operand.mem ?base ?index ~disp ())

let mem_of op =
  match op with
  | Operand.Mem m -> m
  | Operand.Reg _ | Operand.Imm _ -> invalid_arg "Build.mem_of"

(* ------------------------------------------------------------------ *)
(* Single instructions                                                 *)

let ins i : code = [ Surface.Ins i ]

let label l : code = [ Surface.Label l ]

let mov ?(w = Width.W8) dst src = ins (Instr.Mov (w, dst, src))

let cmov cond dst src = ins (Instr.Cmov (cond, dst, src))

let lea dst addr = ins (Instr.Lea (Reg.r dst, mem_of addr))

let binop op ?(w = Width.W8) dst src = ins (Instr.Binop (op, w, dst, src))

let add ?w dst src = binop Op.Add ?w dst src

let sub ?w dst src = binop Op.Sub ?w dst src

let mul ?w dst src = binop Op.Mul ?w dst src

let div ?w dst src = binop Op.Div ?w dst src

let rem ?w dst src = binop Op.Rem ?w dst src

let and_ ?w dst src = binop Op.And ?w dst src

let or_ ?w dst src = binop Op.Or ?w dst src

let xor ?w dst src = binop Op.Xor ?w dst src

let shl ?w dst src = binop Op.Shl ?w dst src

let shr ?w dst src = binop Op.Shr ?w dst src

let sar ?w dst src = binop Op.Sar ?w dst src

let min_ ?w dst src = binop Op.Min ?w dst src

let max_ ?w dst src = binop Op.Max ?w dst src

let fadd ?w dst src = binop Op.Fadd ?w dst src

let fsub ?w dst src = binop Op.Fsub ?w dst src

let fmul ?w dst src = binop Op.Fmul ?w dst src

let fdiv ?w dst src = binop Op.Fdiv ?w dst src

let neg ?(w = Width.W8) dst = ins (Instr.Unop (Op.Neg, w, dst))

let not_ ?(w = Width.W8) dst = ins (Instr.Unop (Op.Not, w, dst))

let fsqrt ?(w = Width.W8) dst = ins (Instr.Unop (Op.Fsqrt, w, dst))

let cmp ?(w = Width.W8) a b = ins (Instr.Cmp (w, a, b))

let jcc c l = ins (Instr.Jcc (c, l))

let jmp l = ins (Instr.Jmp l)

let call f = ins (Instr.Call f)

let ret : code = ins Instr.Ret

let halt : code = ins Instr.Halt

let lock_acquire addr = ins (Instr.Lock_acquire addr)

let lock_release addr = ins (Instr.Lock_release addr)

let atomic_rmw op ?(w = Width.W8) dst src =
  ins (Instr.Atomic_rmw (op, w, mem_of dst, src))

let io_in cost = ins (Instr.Io (Instr.In, cost))

let barrier b = ins (Instr.Barrier b)

let io_out cost = ins (Instr.Io (Instr.Out, cost))

(* ------------------------------------------------------------------ *)
(* Composition and structured control flow                             *)

let seq (fragments : code list) : code = List.concat fragments

(** [if_ c a b ~then_ ?else_ ()] — execute [then_] when [a c b] holds. *)
let if_ ?(w = Width.W8) cond a b ~then_ ?else_ () : code =
  let l_end = fresh "endif" in
  match else_ with
  | None ->
      seq
        [ cmp ~w a b; jcc (Cond.negate cond) l_end; seq then_; label l_end ]
  | Some else_ ->
      let l_else = fresh "else" in
      seq
        [
          cmp ~w a b;
          jcc (Cond.negate cond) l_else;
          seq then_;
          jmp l_end;
          label l_else;
          seq else_;
          label l_end;
        ]

(** [while_ c a b body] — top-tested loop, runs while [a c b] holds. *)
let while_ ?(w = Width.W8) cond a b body : code =
  let l_head = fresh "while" and l_end = fresh "endwhile" in
  seq
    [
      label l_head;
      cmp ~w a b;
      jcc (Cond.negate cond) l_end;
      seq body;
      jmp l_head;
      label l_end;
    ]

(** [for_up ~i ~from_ ~below body] — counted loop over register [i] from
    [from_] (inclusive) to [below] (exclusive), step 1. *)
let for_up ?(w = Width.W8) ~i ~from_ ~below body : code =
  let iv = reg i in
  seq
    [
      mov ~w iv from_;
      while_ ~w Cond.Lt iv below (body @ [ add ~w iv (imm 1) ]);
    ]

(** Infinite loop; exit with an explicit [jmp] out or [ret]. *)
let forever body : code =
  let l_head = fresh "forever" in
  seq [ label l_head; seq body; jmp l_head ]

(* ------------------------------------------------------------------ *)
(* Functions                                                           *)

let func name fragments : Surface.func = { name; body = seq fragments }
