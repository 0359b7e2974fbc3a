(** CISC → RISC cracking.

    The paper converts each traced x86 CISC instruction into one or more
    RISC micro-ops before feeding the SIMT simulator — e.g. an [add] with a
    memory operand becomes a load followed by an add (§III).  This module
    performs the same expansion for the mini-ISA, once per static
    instruction; lane addresses for the load/store micro-ops are filled in
    when the emulator emits them ({!Warp_trace.Builder.emit}) from the
    trace's per-instruction access records. *)

open Threadfuser_isa
module Program = Threadfuser_prog.Program

(* A cracked micro-op before its lanes' addresses are known: its template
   and, for a memory micro-op, which of the instruction's access sets
   supplies the addresses, with the access size. *)
type access = No_access | Load of int | Store of int

type uop = { tpl : Warp_trace.template; access : access }

let uop cls ?(dst = -1) ?(srcs = [||]) () =
  { tpl = { Warp_trace.t_cls = cls; t_dst = dst; t_srcs = srcs }; access = No_access }

let load_uop ~size ~dst ~addr_srcs =
  {
    tpl = { Warp_trace.t_cls = Opclass.Load; t_dst = dst; t_srcs = addr_srcs };
    access = Load size;
  }

let store_uop ~size ~data_srcs =
  {
    tpl = { Warp_trace.t_cls = Opclass.Store; t_dst = -1; t_srcs = data_srcs };
    access = Store size;
  }

let reg_of = function Operand.Reg r -> r | Operand.Imm _ | Operand.Mem _ -> -1

let srcs_of_operand (op : Operand.t) =
  match op with
  | Operand.Reg r -> [| r |]
  | Operand.Imm _ -> [||]
  | Operand.Mem m -> Array.of_list (Operand.mem_regs m)

let addr_srcs (op : Operand.t) =
  match op with
  | Operand.Mem m -> Array.of_list (Operand.mem_regs m)
  | Operand.Reg _ | Operand.Imm _ -> [||]

(* The micro-ops of one instruction, addresses not yet known. *)
let uops (instr : (int, int) Instr.t) : uop list =
  let temp = Warp_trace.temp_reg and flags = Warp_trace.flags_reg in
  let w_size w = Width.bytes w in
  match instr with
  | Instr.Mov (w, dst, src) -> (
      match (dst, src) with
      | Operand.Mem _, _ ->
          [ store_uop ~size:(w_size w)
              ~data_srcs:(Array.append (srcs_of_operand src) (addr_srcs dst)) ]
      | _, Operand.Mem _ ->
          [ load_uop ~size:(w_size w) ~dst:(reg_of dst) ~addr_srcs:(addr_srcs src) ]
      | _, (Operand.Reg _ | Operand.Imm _) ->
          [ uop Opclass.Ialu ~dst:(reg_of dst) ~srcs:(srcs_of_operand src) () ])
  | Instr.Cmov (_, dst, src) -> (
      match src with
      | Operand.Mem _ ->
          [
            load_uop ~size:8 ~dst:temp ~addr_srcs:(addr_srcs src);
            uop Opclass.Ialu ~dst:(reg_of dst) ~srcs:[| temp; flags |] ();
          ]
      | Operand.Reg _ | Operand.Imm _ ->
          [
            uop Opclass.Ialu ~dst:(reg_of dst)
              ~srcs:(Array.append (srcs_of_operand src) [| flags |])
              ();
          ])
  | Instr.Lea (r, m) ->
      [ uop Opclass.Ialu ~dst:r ~srcs:(Array.of_list (Operand.mem_regs m)) () ]
  | Instr.Binop (op, w, dst, src) -> (
      let cls = Opclass.of_binop op in
      match (dst, src) with
      | Operand.Mem _, _ ->
          (* read-modify-write: load, op, store *)
          [
            load_uop ~size:(w_size w) ~dst:temp ~addr_srcs:(addr_srcs dst);
            uop cls ~dst:temp ~srcs:(Array.append [| temp |] (srcs_of_operand src)) ();
            store_uop ~size:(w_size w)
              ~data_srcs:(Array.append [| temp |] (addr_srcs dst));
          ]
      | _, Operand.Mem _ ->
          [
            load_uop ~size:(w_size w) ~dst:temp ~addr_srcs:(addr_srcs src);
            uop cls ~dst:(reg_of dst) ~srcs:[| reg_of dst; temp |] ();
          ]
      | _, (Operand.Reg _ | Operand.Imm _) ->
          [
            uop cls ~dst:(reg_of dst)
              ~srcs:(Array.append [| reg_of dst |] (srcs_of_operand src))
              ();
          ])
  | Instr.Unop (op, w, dst) -> (
      let cls = Opclass.of_unop op in
      match dst with
      | Operand.Mem _ ->
          [
            load_uop ~size:(w_size w) ~dst:temp ~addr_srcs:(addr_srcs dst);
            uop cls ~dst:temp ~srcs:[| temp |] ();
            store_uop ~size:(w_size w)
              ~data_srcs:(Array.append [| temp |] (addr_srcs dst));
          ]
      | Operand.Reg _ | Operand.Imm _ ->
          [ uop cls ~dst:(reg_of dst) ~srcs:[| reg_of dst |] () ])
  | Instr.Cmp (w, a, b) -> (
      let mem_part op =
        match op with
        | Operand.Mem _ ->
            ( [ load_uop ~size:(w_size w) ~dst:temp ~addr_srcs:(addr_srcs op) ],
              [| temp |] )
        | Operand.Reg _ | Operand.Imm _ -> ([], srcs_of_operand op)
      in
      (* at most one of a, b is a memory operand *)
      let loads_a, srcs_a = mem_part a in
      let loads_b, srcs_b = mem_part b in
      loads_a @ loads_b
      @ [ uop Opclass.Ialu ~dst:Warp_trace.flags_reg ~srcs:(Array.append srcs_a srcs_b) () ])
  | Instr.Jcc (_, _) -> [ uop Opclass.Branch ~srcs:[| flags |] () ]
  | Instr.Jmp _ -> [ uop Opclass.Branch () ]
  | Instr.Call _ | Instr.Ret -> [ uop Opclass.Callret () ]
  | Instr.Lock_acquire _ | Instr.Lock_release _ | Instr.Barrier _ ->
      [ uop Opclass.Sync () ]
  | Instr.Atomic_rmw (op, w, m, src) ->
      let cls = Opclass.of_binop op in
      let m_regs = Array.of_list (Operand.mem_regs m) in
      [
        load_uop ~size:(w_size w) ~dst:temp ~addr_srcs:m_regs;
        uop cls ~dst:temp ~srcs:(Array.append [| temp |] (srcs_of_operand src)) ();
        store_uop ~size:(w_size w) ~data_srcs:(Array.append [| temp |] m_regs);
      ]
  | Instr.Io (_, _) | Instr.Halt -> []

(* Every static instruction of [prog], cracked once, in site order
   ((fid, block, ioff), as {!Coalesce.block_site} numbers them). *)
let sites prog : Warp_trace.sites =
  let slots = ref [] and off = ref [ 0 ] and n = ref 0 in
  for fid = 0 to Program.func_count prog - 1 do
    Array.iter
        (fun (b : Program.block) ->
          Array.iter
            (fun instr ->
              List.iter
                (fun u ->
                  slots := u :: !slots;
                  incr n)
                (uops instr);
              off := !n :: !off)
            b.Program.instrs)
        (Program.func prog fid).Program.blocks
  done;
  let slots = Array.of_list (List.rev !slots) in
  {
    Warp_trace.slots = Array.map (fun u -> u.tpl) slots;
    site_off = Array.of_list (List.rev !off);
    slot_src =
      Array.map
        (fun u -> match u.access with No_access -> 0 | Load _ -> 1 | Store _ -> 2)
        slots;
    slot_size =
      Array.map
        (fun u -> match u.access with No_access -> 0 | Load s | Store s -> s)
        slots;
  }
