(** Surface (pre-assembly) program form: functions as flat lists of labels
    and instructions with symbolic jump/call targets.  Produced by the
    {!Build} DSL (or by the {!Threadfuser_compiler} passes) and consumed by
    {!Program.assemble}. *)

type item = Label of string | Ins of (string, string) Threadfuser_isa.Instr.t

type func = { name : string; body : item list }

type t = func list

val pp_func : Format.formatter -> func -> unit
