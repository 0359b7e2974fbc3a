(** XAPP-style program properties, extracted from a single-threaded CPU
    profile (XAPP's input is an unmodified single-threaded run).

    Eleven dynamic features per program, all cheap to compute from one
    thread's trace plus the static code — the spirit of XAPP's
    "16 profile-based program properties" scaled to this ISA:

    0. ALU fraction            1. mul/div fraction      2. FP fraction
    3. load fraction           4. store fraction        5. branch fraction
    6. mean basic-block length 7. control diversity (distinct edges /
       dynamic branches)       8. arithmetic intensity (instrs per access)
    9. memory irregularity (unique addresses / accesses)
    10. synchronization rate (lock ops per kilo-instruction) *)

open Threadfuser_isa
module Program = Threadfuser_prog.Program
module Thread_trace = Threadfuser_trace.Thread_trace

let n_features = 11

let names =
  [|
    "alu_frac"; "muldiv_frac"; "fp_frac"; "load_frac"; "store_frac";
    "branch_frac"; "mean_block_len"; "control_diversity"; "intensity";
    "mem_irregularity"; "sync_rate";
  |]

type mix = {
  mutable alu : int;
  mutable muldiv : int;
  mutable fp : int;
  mutable load : int;
  mutable store : int;
  mutable branch : int;
  mutable other : int;
}

let classify_static mix (i : (int, int) Instr.t) =
  let mem_ops o = if Operand.is_mem o then 1 else 0 in
  match i with
  | Instr.Mov (_, dst, src) ->
      mix.load <- mix.load + mem_ops src;
      mix.store <- mix.store + mem_ops dst;
      if not (Operand.is_mem dst || Operand.is_mem src) then mix.alu <- mix.alu + 1
  | Instr.Cmov (_, _, src) ->
      mix.load <- mix.load + mem_ops src;
      mix.alu <- mix.alu + 1
  | Instr.Lea _ -> mix.alu <- mix.alu + 1
  | Instr.Binop (op, _, dst, src) ->
      mix.load <- mix.load + mem_ops src + mem_ops dst;
      mix.store <- mix.store + mem_ops dst;
      (match op with
      | Op.Mul | Op.Div | Op.Rem -> mix.muldiv <- mix.muldiv + 1
      | Op.Fadd | Op.Fsub | Op.Fmul | Op.Fdiv -> mix.fp <- mix.fp + 1
      | _ -> mix.alu <- mix.alu + 1)
  | Instr.Unop (op, _, dst) ->
      mix.load <- mix.load + mem_ops dst;
      mix.store <- mix.store + mem_ops dst;
      (match op with
      | Op.Fsqrt -> mix.fp <- mix.fp + 1
      | Op.Neg | Op.Not -> mix.alu <- mix.alu + 1)
  | Instr.Cmp (_, a, b) ->
      mix.load <- mix.load + mem_ops a + mem_ops b;
      mix.alu <- mix.alu + 1
  | Instr.Jcc _ | Instr.Jmp _ -> mix.branch <- mix.branch + 1
  | Instr.Atomic_rmw _ ->
      mix.load <- mix.load + 1;
      mix.store <- mix.store + 1
  | Instr.Call _ | Instr.Ret | Instr.Lock_acquire _ | Instr.Lock_release _
  | Instr.Io _ | Instr.Barrier _ | Instr.Halt ->
      mix.other <- mix.other + 1

(** Extract the feature vector from one thread's trace. *)
let extract (prog : Program.t) (trace : Thread_trace.t) : float array =
  let mix = { alu = 0; muldiv = 0; fp = 0; load = 0; store = 0; branch = 0; other = 0 } in
  let total_instrs = ref 0 in
  let total_blocks = ref 0 in
  let accesses = ref 0 in
  let unique_addrs = Hashtbl.create 1024 in
  let edges = Hashtbl.create 256 in
  let lock_ops = ref 0 in
  let last_block = ref (-1) in
  for i = 0 to Thread_trace.length trace - 1 do
    match trace.events.(i) with
    | Thread_trace.Block ->
        let func = trace.ev.(3 * i) and block = trace.ev.((3 * i) + 1) in
        total_instrs := !total_instrs + trace.n_instr.(i);
        incr total_blocks;
        let f = Program.func prog func in
        Array.iter (classify_static mix) f.Program.blocks.(block).Program.instrs;
        for j = trace.ev.((3 * i) + 2) to trace.ev.((3 * i) + 5) - 1 do
          incr accesses;
          Hashtbl.replace unique_addrs trace.acc.((3 * j) + 1) ()
        done;
        let key = (func * 100_000) + block in
        if !last_block >= 0 then Hashtbl.replace edges ((!last_block * 1_000_000_000) + key) ();
        last_block := key
    | Thread_trace.Lock_acq | Thread_trace.Lock_rel | Thread_trace.Barrier ->
        incr lock_ops
    | Thread_trace.Call | Thread_trace.Return | Thread_trace.Skip -> ()
  done;
  let fi = float_of_int in
  let instrs = max 1 !total_instrs in
  let frac n = fi n /. fi instrs in
  [|
    frac mix.alu;
    frac mix.muldiv;
    frac mix.fp;
    frac mix.load;
    frac mix.store;
    frac mix.branch;
    fi instrs /. fi (max 1 !total_blocks);
    fi (Hashtbl.length edges) /. fi (max 1 mix.branch);
    fi instrs /. fi (max 1 !accesses);
    fi (Hashtbl.length unique_addrs) /. fi (max 1 !accesses);
    1000.0 *. fi !lock_ops /. fi instrs;
  |]
