(** The MIMD CPU emulator — ThreadFuser's stand-in for "run the unmodified
    binary under Intel PIN".

    It executes an assembled {!Threadfuser_prog.Program} with any number of
    software threads under a deterministic round-robin scheduler and emits,
    per thread, exactly the dynamic trace abstraction the paper's tracer
    produces: executed basic blocks with per-instruction memory accesses,
    call/return markers, lock acquire/release events, and skipped-instruction
    records for I/O work and lock spinning.

    Scheduling is at basic-block granularity ([quantum] blocks per slot), so
    runs are bit-reproducible.  Locks are futex-like: a thread that fails to
    acquire blocks; when the holder releases, ownership transfers FIFO and
    the waiter's wasted spin time is charged as [spin_cost] skipped
    instructions per scheduling slot spent waiting (cf. paper Fig. 8). *)

open Threadfuser_isa
module Program = Threadfuser_prog.Program
module Thread_trace = Threadfuser_trace.Thread_trace
module Vec = Threadfuser_util.Vec
module Log = Thread_trace.Log

exception Machine_error of string

let errf fmt = Fmt.kstr (fun s -> raise (Machine_error s)) fmt

type config = {
  trace : bool; (* record events (disable for timing-only runs) *)
  quantum : int; (* basic blocks per scheduling slot *)
  spin_cost : int; (* skipped instructions per slot spent lock-waiting *)
  max_instrs : int; (* global budget; exceeded = runaway program *)
  max_call_depth : int;
  untraced_functions : string list;
      (* selective tracing (paper §III): calls into these functions (and
         everything beneath them) execute normally but appear in traces as
         one [Skip Excluded] record instead of events *)
}

let default_config =
  {
    trace = true;
    quantum = 8;
    spin_cost = 12;
    max_instrs = 2_000_000_000;
    max_call_depth = 10_000;
    untraced_functions = [];
  }

type thread_state = Ready | Blocked | Finished

(* What a thread was granted while blocked; events are emitted when it is
   next scheduled. *)
type wake = Wake_lock of int | Wake_barrier of int

(* How the block that just ran hands control on.  Its terminator sets
   the thread's [exit] and [exit_arg] (a constant constructor and an int,
   so nothing is allocated); a block without one falls through. *)
type exit_kind =
  | Fall_through
  | Jump (* [exit_arg]: target block *)
  | Enter (* [exit_arg]: callee *)
  | Leave
  | Acquire (* [exit_arg]: lock address *)
  | Release
  | Io_work (* [exit_arg]: skipped instructions *)
  | Arrive (* [exit_arg]: barrier address *)
  | Stop

type thread = {
  tid : int;
  regs : int array;
  mutable fa : int; (* flags: operands of the last Cmp *)
  mutable fb : int;
  mutable fid : int; (* current function *)
  mutable bid : int; (* current block *)
  callstack : int Vec.t; (* return points: caller fid, then block id *)
  mutable state : thread_state;
  log : Log.t;
  traced : bool; (* [config.trace] *)
  mutable pending_wake : wake option;
  mutable blocked_since : int; (* scheduler slot when blocking started *)
  mutable suppress_depth : int; (* >0 while inside an excluded function *)
  mutable suppressed_instrs : int; (* instructions hidden so far *)
  mutable exit : exit_kind;
  mutable exit_arg : int;
}

(* One compiled instruction: it reads and writes the thread's state
   directly. *)
type code = thread -> unit

type lock = { mutable owner : int; waiters : int Queue.t }

type barrier = { mutable arrived : int list }

type t = {
  prog : Program.t;
  mem : Memory.t;
  code : code array array array; (* per function, per block, per instruction *)
  config : config;
  locks : (int, lock) Hashtbl.t;
  barriers : (int, barrier) Hashtbl.t;
  untraced : bool array; (* per function id *)
  mutable instr_count : int;
  mutable slot : int;
}

type result = {
  traces : Thread_trace.t array;
  final_regs : int array array;
  instrs_executed : int;
}

(* ---------------------------------------------------------------- *)
(* Compiler: every block once, into closures                         *)

(* [Machine.create] compiles each instruction into a closure specialised
   on its operand kinds, width and ALU op, so running a block matches on
   no instruction, operand or width.  Effects keep the ISA's order:
   sources are read (and their accesses recorded) before destinations,
   and an instruction that must fail (a store to an immediate, a cmov to
   memory, a negative address) fails only when it executes. *)

(* Does [th] record events now?  Not inside an excluded function. *)
let[@inline] tracing th = th.traced && th.suppress_depth = 0

(* A memory access of the executing block; the block claims it when it
   finishes. *)
let[@inline] record th ioff addr size is_store =
  if tracing th then Log.access th.log ~ioff ~addr ~size ~is_store

(* A width as the mask that truncates to it. *)
let mask : Width.t -> int = function
  | Width.W8 -> -1
  | Width.W4 -> 0xffffffff
  | Width.W2 -> 0xffff
  | Width.W1 -> 0xff

(* A memory operand as (base, index, scale, disp); an absent register
   is -1. *)
let split (m : Operand.mem) =
  let b = match m.base with Some r -> r | None -> -1 in
  match m.index with
  | Some (x, s) -> (b, x, s, m.disp)
  | None -> (b, -1, 0, m.disp)

let[@inline] ea regs b x s d =
  (if b >= 0 then regs.(b) else 0) + (if x >= 0 then regs.(x) * s else 0) + d

(* The general forms, for operand shapes no hot path takes: a source's
   value at width [w] and a destination's store. *)
let src_fn mem ioff w (op : Operand.t) : thread -> int =
  match op with
  | Operand.Reg r ->
      let k = mask w in
      fun th -> th.regs.(r) land k
  | Operand.Imm n ->
      let v = n land mask w in
      fun _ -> v
  | Operand.Mem m ->
      let b, x, s, d = split m and size = Width.bytes w in
      fun th ->
        let a = ea th.regs b x s d in
        record th ioff a size false;
        Memory.load mem ~width:w a

let dst_fn mem ioff w (op : Operand.t) : thread -> int -> unit =
  match op with
  | Operand.Reg r ->
      let k = mask w in
      fun th v -> th.regs.(r) <- v land k
  | Operand.Mem m ->
      let b, x, s, d = split m and size = Width.bytes w in
      fun th v ->
        let a = ea th.regs b x s d in
        record th ioff a size true;
        Memory.store mem ~width:w a v
  | Operand.Imm _ ->
      fun th _ -> errf "thread %d: store to immediate operand" th.tid

(* The value a lock primitive names: memory operands denote their address
   (like [lea]); registers and immediates denote their value. *)
let target_fn (op : Operand.t) : thread -> int =
  match op with
  | Operand.Mem m ->
      let b, x, s, d = split m in
      fun th -> ea th.regs b x s d
  | Operand.Reg r -> fun th -> th.regs.(r)
  | Operand.Imm n -> fun _ -> n

(* [dst <- dst op src] on registers, one closure per op. *)
let binop_rr (op : Op.binop) k r q : code =
  match op with
  | Op.Add | Op.Fadd ->
      fun th -> let g = th.regs in g.(r) <- ((g.(r) land k) + (g.(q) land k)) land k
  | Op.Sub | Op.Fsub ->
      fun th -> let g = th.regs in g.(r) <- ((g.(r) land k) - (g.(q) land k)) land k
  | Op.Mul | Op.Fmul ->
      fun th -> let g = th.regs in g.(r) <- (g.(r) land k) * (g.(q) land k) land k
  | Op.And -> fun th -> let g = th.regs in g.(r) <- g.(r) land g.(q) land k
  | Op.Or -> fun th -> let g = th.regs in g.(r) <- (g.(r) lor g.(q)) land k
  | Op.Xor -> fun th -> let g = th.regs in g.(r) <- (g.(r) lxor g.(q)) land k
  | Op.Shl ->
      fun th -> let g = th.regs in g.(r) <- ((g.(r) land k) lsl (g.(q) land k land 63)) land k
  | Op.Shr ->
      fun th -> let g = th.regs in g.(r) <- ((g.(r) land k) lsr (g.(q) land k land 63)) land k
  | Op.Sar ->
      fun th -> let g = th.regs in g.(r) <- ((g.(r) land k) asr (g.(q) land k land 63)) land k
  | Op.Div | Op.Fdiv | Op.Rem | Op.Min | Op.Max ->
      fun th ->
        let g = th.regs in
        g.(r) <- Op.eval_binop op (g.(r) land k) (g.(q) land k) land k

(* [dst <- dst op n] with [n] already truncated. *)
let binop_ri (op : Op.binop) k r n : code =
  match op with
  | Op.Add | Op.Fadd -> fun th -> let g = th.regs in g.(r) <- ((g.(r) land k) + n) land k
  | Op.Sub | Op.Fsub -> fun th -> let g = th.regs in g.(r) <- ((g.(r) land k) - n) land k
  | Op.Mul | Op.Fmul -> fun th -> let g = th.regs in g.(r) <- (g.(r) land k) * n land k
  | Op.And -> fun th -> let g = th.regs in g.(r) <- g.(r) land n
  | Op.Or -> fun th -> let g = th.regs in g.(r) <- (g.(r) lor n) land k
  | Op.Xor -> fun th -> let g = th.regs in g.(r) <- (g.(r) lxor n) land k
  | Op.Shl ->
      let n = n land 63 in
      fun th -> let g = th.regs in g.(r) <- ((g.(r) land k) lsl n) land k
  | Op.Shr ->
      let n = n land 63 in
      fun th -> let g = th.regs in g.(r) <- ((g.(r) land k) lsr n) land k
  | Op.Sar ->
      let n = n land 63 in
      fun th -> let g = th.regs in g.(r) <- ((g.(r) land k) asr n) land k
  | Op.Div | Op.Fdiv | Op.Rem | Op.Min | Op.Max ->
      fun th -> let g = th.regs in g.(r) <- Op.eval_binop op (g.(r) land k) n land k

let jcc (c : Cond.t) target : code =
  let jump th =
    th.exit <- Jump;
    th.exit_arg <- target
  in
  match c with
  | Cond.Eq -> fun th -> if th.fa = th.fb then jump th
  | Cond.Ne -> fun th -> if th.fa <> th.fb then jump th
  | Cond.Lt -> fun th -> if th.fa < th.fb then jump th
  | Cond.Le -> fun th -> if th.fa <= th.fb then jump th
  | Cond.Gt -> fun th -> if th.fa > th.fb then jump th
  | Cond.Ge -> fun th -> if th.fa >= th.fb then jump th

let exit_with kind arg_fn : code =
 fun th ->
  th.exit <- kind;
  th.exit_arg <- arg_fn th

let compile_instr mem ioff (instr : (int, int) Instr.t) : code =
  match instr with
  | Instr.Mov (w, dst, src) -> (
      let k = mask w and size = Width.bytes w in
      match (dst, src) with
      | Operand.Reg r, Operand.Reg q -> fun th -> let g = th.regs in g.(r) <- g.(q) land k
      | Operand.Reg r, Operand.Imm n ->
          let v = n land k in
          fun th -> th.regs.(r) <- v
      | Operand.Reg r, Operand.Mem m ->
          let b, x, s, d = split m in
          fun th ->
            let g = th.regs in
            let a = ea g b x s d in
            record th ioff a size false;
            g.(r) <- Memory.load mem ~width:w a
      | Operand.Mem m, Operand.Reg q ->
          let b, x, s, d = split m in
          fun th ->
            let g = th.regs in
            let v = g.(q) land k in
            let a = ea g b x s d in
            record th ioff a size true;
            Memory.store mem ~width:w a v
      | Operand.Mem m, Operand.Imm n ->
          let b, x, s, d = split m and v = n land k in
          fun th ->
            let a = ea th.regs b x s d in
            record th ioff a size true;
            Memory.store mem ~width:w a v
      | _ ->
          let src = src_fn mem ioff w src and dst = dst_fn mem ioff w dst in
          fun th ->
            let v = src th in
            dst th v)
  | Instr.Cmov (c, Operand.Reg r, Operand.Reg q) ->
      fun th ->
        let g = th.regs in
        let v = g.(q) in
        if Cond.eval c th.fa th.fb then g.(r) <- v
  | Instr.Cmov (c, Operand.Reg r, src) ->
      let src = src_fn mem ioff Width.W8 src in
      fun th ->
        let v = src th in
        if Cond.eval c th.fa th.fb then th.regs.(r) <- v
  | Instr.Cmov (_, (Operand.Imm _ | Operand.Mem _), src) ->
      let src = src_fn mem ioff Width.W8 src in
      fun th ->
        ignore (src th : int);
        errf "thread %d: cmov destination must be a register" th.tid
  | Instr.Lea (r, m) ->
      let b, x, s, d = split m in
      fun th -> let g = th.regs in g.(r) <- ea g b x s d
  | Instr.Binop (op, w, dst, src) -> (
      let k = mask w and size = Width.bytes w in
      match (dst, src) with
      | Operand.Reg r, Operand.Reg q -> binop_rr op k r q
      | Operand.Reg r, Operand.Imm n -> binop_ri op k r (n land k)
      | Operand.Reg r, Operand.Mem m ->
          let b, x, s, d = split m in
          fun th ->
            let g = th.regs in
            let a = ea g b x s d in
            record th ioff a size false;
            let v = Memory.load mem ~width:w a in
            g.(r) <- Op.eval_binop op (g.(r) land k) v land k
      | Operand.Mem m, (Operand.Reg _ | Operand.Imm _) ->
          let src = src_fn mem ioff w src and b, x, s, d = split m in
          fun th ->
            let v = src th in
            let a = ea th.regs b x s d in
            record th ioff a size false;
            let old = Memory.load mem ~width:w a in
            record th ioff a size true;
            Memory.store mem ~width:w a (Op.eval_binop op old v land k)
      | _ ->
          let src = src_fn mem ioff w src
          and cur = src_fn mem ioff w dst
          and dst = dst_fn mem ioff w dst in
          fun th ->
            let v = src th in
            let old = cur th in
            dst th (Op.eval_binop op old v land k))
  | Instr.Unop (op, w, dst) -> (
      let k = mask w in
      match (op, dst) with
      | Op.Neg, Operand.Reg r -> fun th -> let g = th.regs in g.(r) <- (- (g.(r) land k)) land k
      | Op.Not, Operand.Reg r -> fun th -> let g = th.regs in g.(r) <- lnot g.(r) land k
      | _ ->
          let cur = src_fn mem ioff w dst and dst = dst_fn mem ioff w dst in
          fun th ->
            let v = Op.eval_unop op (cur th) land k in
            dst th v)
  | Instr.Cmp (w, x, y) -> (
      let k = mask w in
      match (x, y) with
      | Operand.Reg p, Operand.Reg q ->
          fun th ->
            let g = th.regs in
            th.fa <- g.(p) land k;
            th.fb <- g.(q) land k
      | Operand.Reg p, Operand.Imm n ->
          let n = n land k in
          fun th ->
            th.fa <- th.regs.(p) land k;
            th.fb <- n
      | _ ->
          let fx = src_fn mem ioff w x and fy = src_fn mem ioff w y in
          fun th ->
            th.fa <- fx th;
            th.fb <- fy th)
  | Instr.Jcc (c, target) -> jcc c target
  | Instr.Jmp target ->
      fun th ->
        th.exit <- Jump;
        th.exit_arg <- target
  | Instr.Call f ->
      fun th ->
        th.exit <- Enter;
        th.exit_arg <- f
  | Instr.Ret -> fun th -> th.exit <- Leave
  | Instr.Halt -> fun th -> th.exit <- Stop
  | Instr.Lock_acquire op -> exit_with Acquire (target_fn op)
  | Instr.Lock_release op -> exit_with Release (target_fn op)
  | Instr.Barrier op -> exit_with Arrive (target_fn op)
  | Instr.Io (_, cost) -> exit_with Io_work (src_fn mem ioff Width.W8 cost)
  | Instr.Atomic_rmw (op, w, m, src) ->
      let k = mask w and size = Width.bytes w in
      let src = src_fn mem ioff w src and b, x, s, d = split m in
      fun th ->
        let v = src th in
        let a = ea th.regs b x s d in
        record th ioff a size false;
        let old = Memory.load mem ~width:w a in
        record th ioff a size true;
        Memory.store mem ~width:w a (Op.eval_binop op old v land k)

let compile mem (prog : Program.t) =
  Array.map
    (fun (f : Program.func) ->
      Array.map
        (fun (b : Program.block) -> Array.mapi (compile_instr mem) b.Program.instrs)
        f.Program.blocks)
    prog.Program.funcs

let create ?(config = default_config) prog =
  let untraced = Array.make (Program.func_count prog) false in
  List.iter
    (fun name -> untraced.(Program.find_func prog name) <- true)
    config.untraced_functions;
  let mem = Memory.create () in
  {
    prog;
    mem;
    code = compile mem prog;
    config;
    locks = Hashtbl.create 64;
    barriers = Hashtbl.create 8;
    untraced;
    instr_count = 0;
    slot = 0;
  }

let memory t = t.mem

let instrs_executed t = t.instr_count


let find_barrier m addr =
  match Hashtbl.find_opt m.barriers addr with
  | Some b -> b
  | None ->
      let b = { arrived = [] } in
      Hashtbl.add m.barriers addr b;
      b

let alive_count threads =
  Array.fold_left
    (fun acc th -> if th.state = Finished then acc else acc + 1)
    0 threads

(* Release every barrier whose whole (still-running) team has arrived.
   [except] passes without a wake record (it emits its event inline). *)
let check_barriers ?(except = -1) m threads =
  Hashtbl.iter
    (fun _addr b ->
      if b.arrived <> [] && List.length b.arrived >= alive_count threads then begin
        List.iter
          (fun tid ->
            if tid <> except then begin
              let w = threads.(tid) in
              w.pending_wake <- Some (Wake_barrier _addr);
              w.state <- Ready
            end)
          b.arrived;
        b.arrived <- []
      end)
    m.barriers

let find_lock m addr =
  match Hashtbl.find_opt m.locks addr with
  | Some l -> l
  | None ->
      let l = { owner = -1; waiters = Queue.create () } in
      Hashtbl.add m.locks addr l;
      l

(* Execute the thread's current basic block to completion and apply the
   terminator's control effect.  Returns unit; thread state tells the
   scheduler what happened. *)
let run_block m threads th =
  let blocks = m.code.(th.fid) in
  if th.bid >= Array.length blocks then
    errf "thread %d: fell off the end of %s" th.tid
      (Program.func_name m.prog th.fid);
  let code = blocks.(th.bid) in
  let n = Array.length code in
  m.instr_count <- m.instr_count + n;
  if m.instr_count > m.config.max_instrs then
    errf "instruction budget exceeded (%d): runaway program?"
      m.config.max_instrs;
  if th.suppress_depth > 0 then th.suppressed_instrs <- th.suppressed_instrs + n;
  th.exit <- Fall_through;
  for i = 0 to n - 1 do
    (Array.unsafe_get code i) th
  done;
  if tracing th then Log.block th.log ~func:th.fid ~block:th.bid ~n_instr:n;
  match th.exit with
  | Fall_through -> th.bid <- th.bid + 1
  | Jump -> th.bid <- th.exit_arg
  | Enter ->
      let callee = th.exit_arg in
      if Vec.length th.callstack >= 2 * m.config.max_call_depth then
        errf "thread %d: call depth exceeded" th.tid;
      if th.suppress_depth > 0 then th.suppress_depth <- th.suppress_depth + 1
      else if m.untraced.(callee) then th.suppress_depth <- 1
      else if tracing th then Log.call th.log callee;
      Vec.push th.callstack th.fid;
      Vec.push th.callstack (th.bid + 1);
      th.fid <- callee;
      th.bid <- 0
  | Leave ->
      if th.suppress_depth > 0 then begin
        th.suppress_depth <- th.suppress_depth - 1;
        if th.suppress_depth = 0 && th.suppressed_instrs > 0 then begin
          (* back in traced code: one record for the excluded region *)
          if tracing th then
            Log.skip th.log Thread_trace.skip_excluded th.suppressed_instrs;
          th.suppressed_instrs <- 0
        end
      end
      else if tracing th then Log.return th.log;
      if Vec.is_empty th.callstack then th.state <- Finished
      else begin
        th.bid <- Vec.pop th.callstack;
        th.fid <- Vec.pop th.callstack
      end
  | Stop -> th.state <- Finished
  | Io_work ->
      let cost = th.exit_arg in
      if cost > 0 && tracing th then Log.skip th.log Thread_trace.skip_io cost;
      th.bid <- th.bid + 1
  | Arrive ->
      let addr = th.exit_arg in
      let b = find_barrier m addr in
      th.bid <- th.bid + 1;
      b.arrived <- th.tid :: b.arrived;
      if List.length b.arrived >= alive_count threads then begin
        (* last arriver: release the team and pass through *)
        check_barriers ~except:th.tid m threads;
        if tracing th then Log.barrier th.log addr
      end
      else begin
        th.state <- Blocked;
        th.blocked_since <- m.slot
      end
  | Acquire ->
      let addr = th.exit_arg in
      let l = find_lock m addr in
      th.bid <- th.bid + 1;
      if l.owner = -1 then begin
        l.owner <- th.tid;
        if tracing th then Log.lock_acq th.log addr
      end
      else if l.owner = th.tid then
        errf "thread %d: recursive acquisition of lock 0x%x" th.tid addr
      else begin
        Queue.add th.tid l.waiters;
        th.state <- Blocked;
        th.blocked_since <- m.slot
      end
  | Release ->
      let addr = th.exit_arg in
      let l = find_lock m addr in
      if l.owner <> th.tid then
        errf "thread %d: released lock 0x%x it does not hold" th.tid addr;
      if tracing th then Log.lock_rel th.log addr;
      th.bid <- th.bid + 1;
      if Queue.is_empty l.waiters then l.owner <- -1
      else begin
        (* FIFO ownership transfer; the waiter resumes next time it is
           scheduled and logs its spin cost then. *)
        let next = Queue.pop l.waiters in
        l.owner <- next;
        let w = threads.(next) in
        w.pending_wake <- Some (Wake_lock addr);
        w.state <- Ready
      end

(* ---------------------------------------------------------------- *)
(* Scheduler                                                         *)

let make_thread m ~trace ~tid ~fid ~args =
  let regs = Array.make Reg.count 0 in
  List.iteri (fun i v -> regs.(Reg.arg i) <- v) args;
  regs.(Reg.sp) <- Layout.stack_top tid;
  regs.(Reg.tls) <- Layout.tls_base tid;
  ignore m;
  {
    tid;
    regs;
    fa = 0;
    fb = 0;
    fid;
    bid = 0;
    callstack = Vec.create 0;
    state = Ready;
    log = Log.create ();
    traced = trace;
    pending_wake = None;
    blocked_since = 0;
    suppress_depth = 0;
    suppressed_instrs = 0;
    exit = Fall_through;
    exit_arg = 0;
  }

let run_threads m threads =
  let n = Array.length threads in
  let finished = ref 0 in
  Array.iter (fun th -> if th.state = Finished then incr finished) threads;
  let cursor = ref 0 in
  while !finished < n do
    (* Find the next ready thread, round-robin. *)
    let found = ref (-1) in
    let k = ref 0 in
    while !found < 0 && !k < n do
      let i = (!cursor + !k) mod n in
      if threads.(i).state = Ready then found := i;
      incr k
    done;
    if !found < 0 then errf "deadlock: %d threads blocked" (n - !finished);
    let th = threads.(!found) in
    cursor := (!found + 1) mod n;
    m.slot <- m.slot + 1;
    (match th.pending_wake with
    | None -> ()
    | Some wake ->
        let waited = m.slot - th.blocked_since in
        let spin = waited * m.config.spin_cost in
        if tracing th then begin
          if spin > 0 then Log.skip th.log Thread_trace.skip_spin spin;
          match wake with
          | Wake_lock addr -> Log.lock_acq th.log addr
          | Wake_barrier addr -> Log.barrier th.log addr
        end;
        th.pending_wake <- None);
    let budget = ref m.config.quantum in
    while !budget > 0 && th.state = Ready do
      run_block m threads th;
      decr budget
    done;
    if th.state = Finished then begin
      incr finished;
      (* a thread leaving the team can complete a barrier *)
      check_barriers m threads
    end
  done

(** [run_workers m ~worker ~args] spawns one thread per element of [args]
    (thread [i] starts in function [worker] with [args.(i)] in the argument
    registers) and runs them to completion under the deterministic
    scheduler.  This is the paper's SIMT-thread extraction: one CPU thread
    per OpenMP iteration / pthread worker invocation. *)
let c_machine_instrs =
  Threadfuser_obs.Obs.Counter.make "tf_machine_instrs_total"
    ~help:"instructions executed by the traced MIMD machine"

let run_workers m ~worker ~(args : int list array) : result =
  Threadfuser_obs.Obs.span "machine_run"
    ~args:[ ("threads", string_of_int (Array.length args)); ("worker", worker) ]
    (fun () ->
      let fid = Program.find_func m.prog worker in
      let before = m.instr_count in
      let threads =
        Array.mapi
          (fun tid args -> make_thread m ~trace:m.config.trace ~tid ~fid ~args)
          args
      in
      run_threads m threads;
      Threadfuser_obs.Obs.Counter.add c_machine_instrs (m.instr_count - before);
      {
        traces =
          Array.map (fun th -> Log.finish th.log ~tid:th.tid) threads;
        final_regs = Array.map (fun th -> Array.copy th.regs) threads;
        instrs_executed = m.instr_count;
      })

(** Run a single function to completion on thread 0; returns its r0. *)
let run_func m ~fn ~args =
  let r = run_workers m ~worker:fn ~args:[| args |] in
  r.final_regs.(0).(Reg.ret)
