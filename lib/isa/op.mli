(** ALU operations.  Floating point is modelled in fixed point: the [F*]
    operators compute on integers but are classified as FP work by the
    timing models.  Division/remainder by zero yield 0, so every program is
    total. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Sar
  | Min
  | Max
  | Fadd
  | Fsub
  | Fmul
  | Fdiv

type unop = Neg | Not | Fsqrt

val eval_binop : binop -> int -> int -> int

val eval_unop : unop -> int -> int

val binop_to_string : binop -> string

val unop_to_string : unop -> string

val pp_binop : Format.formatter -> binop -> unit

val pp_unop : Format.formatter -> unop -> unit
