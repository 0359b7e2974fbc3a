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

exception Machine_error of string

let errf fmt = Fmt.kstr (fun s -> raise (Machine_error s)) fmt

(* The tracer's log of one thread.  Every event and every memory access
   is recorded as it happens as one two-word record, in chunks that never
   move; when the run ends, the log is replayed into a trace builder sized
   exactly, so the flat columns are allocated once and the log is the only
   garbage a trace leaves (about half the size of its columns).  Growing
   the builder's own columns instead leaves up to a trace's worth of
   slack and copies: in the end-to-end benchmark, replay-sweep's peak RSS
   rose from about 122 MiB to 157 (doubling) or 169 (fixed-size chunks
   joined at the end), and chunks made simulate's set-up 60% slower.

   Record layout ([w0], [w1]): [w0]'s low 3 bits are the event's
   {!Threadfuser_trace.Pack.tag_of_kind}, or [access_tag] for an access,
   and [x] is [w0 lsr 3].
   - Block: [x] = func | block << 30, [w1] = n_instr | n_acc << 32
     (program ids and block sizes are far below these widths);
   - Call, Lock_acq, Lock_rel, Barrier: [w1] = callee or address;
     Return: nothing; Skip: [x] = reason code, [w1] = n_instr;
   - access: [x] = store | size << 1 | ioff << 9, [w1] = address.
   Accesses precede the Block that owns them. *)
module Log = struct
  module B = Thread_trace.Builder
  module Pack = Threadfuser_trace.Pack

  type t = {
    mutable cur : int array; (* chunk being filled *)
    mutable used : int;
    mutable full : int array list; (* filled chunks, newest first *)
    mutable events : int;
    mutable accesses : int;
    mutable block_accs : int; (* accesses of the executing block *)
  }

  let max_chunk = 8192

  let access_tag = Array.length Pack.kinds

  let create () =
    {
      cur = Array.make 64 0;
      used = 0;
      full = [];
      events = 0;
      accesses = 0;
      block_accs = 0;
    }

  let add t tag x w1 =
    if t.used = Array.length t.cur then begin
      t.full <- t.cur :: t.full;
      t.cur <- Array.make (min max_chunk (2 * t.used)) 0;
      t.used <- 0
    end;
    Array.unsafe_set t.cur t.used (tag lor (x lsl 3));
    Array.unsafe_set t.cur (t.used + 1) w1;
    t.used <- t.used + 2

  let event t kind x w1 =
    t.events <- t.events + 1;
    add t (Pack.tag_of_kind kind) x w1

  let access t ~ioff ~addr ~size ~is_store =
    t.accesses <- t.accesses + 1;
    t.block_accs <- t.block_accs + 1;
    add t access_tag
      (Bool.to_int is_store lor (size lsl 1) lor (ioff lsl 9))
      addr

  let block t ~func ~block ~n_instr =
    event t Thread_trace.Block
      (func lor (block lsl 30))
      (n_instr lor (t.block_accs lsl 32));
    t.block_accs <- 0

  let call t f = event t Thread_trace.Call 0 f
  let return t = event t Thread_trace.Return 0 0
  let lock_acq t a = event t Thread_trace.Lock_acq 0 a
  let lock_rel t a = event t Thread_trace.Lock_rel 0 a
  let barrier t a = event t Thread_trace.Barrier 0 a
  let skip t code n = event t Thread_trace.Skip code n

  let replay_chunk b a used =
    let i = ref 0 in
    while !i < used do
      let w0 = a.(!i) and w1 = a.(!i + 1) in
      let tag = w0 land 7 and x = w0 lsr 3 in
      (if tag = access_tag then
         B.access b ~ioff:(x lsr 9) ~addr:w1
           ~size:((x lsr 1) land 0xff)
           ~is_store:(x land 1 <> 0)
       else
         match Pack.kinds.(tag) with
         | Thread_trace.Block ->
             B.block b ~func:(x land 0x3fff_ffff) ~block:(x lsr 30)
               ~n_instr:(w1 land 0xffff_ffff) ~n_acc:(w1 lsr 32)
         | Thread_trace.Call -> B.call b w1
         | Thread_trace.Return -> B.return b
         | Thread_trace.Lock_acq -> B.lock_acq b w1
         | Thread_trace.Lock_rel -> B.lock_rel b w1
         | Thread_trace.Skip -> B.skip b x w1
         | Thread_trace.Barrier -> B.barrier b w1);
      i := !i + 2
    done

  let finish t ~tid =
    let b = B.create ~events:t.events ~accesses:t.accesses tid in
    List.iter (fun a -> replay_chunk b a (Array.length a)) (List.rev t.full);
    replay_chunk b t.cur t.used;
    B.finish b
end

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

type thread = {
  tid : int;
  regs : int array;
  mutable fa : int; (* flags: operands of the last Cmp *)
  mutable fb : int;
  mutable fid : int; (* current function *)
  mutable bid : int; (* current block *)
  callstack : (int * int) Vec.t;
  mutable state : thread_state;
  log : Log.t;
  traced : bool; (* [config.trace] *)
  mutable pending_wake : wake option;
  mutable blocked_since : int; (* scheduler slot when blocking started *)
  mutable suppress_depth : int; (* >0 while inside an excluded function *)
  mutable suppressed_instrs : int; (* instructions hidden so far *)
}

type lock = { mutable owner : int; waiters : int Queue.t }

type barrier = { mutable arrived : int list }

type t = {
  prog : Program.t;
  mem : Memory.t;
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

let create ?(config = default_config) prog =
  let untraced = Array.make (Program.func_count prog) false in
  List.iter
    (fun name -> untraced.(Program.find_func prog name) <- true)
    config.untraced_functions;
  {
    prog;
    mem = Memory.create ();
    config;
    locks = Hashtbl.create 64;
    barriers = Hashtbl.create 8;
    untraced;
    instr_count = 0;
    slot = 0;
  }

let memory t = t.mem

let instrs_executed t = t.instr_count

(* ---------------------------------------------------------------- *)
(* Interpreter                                                       *)

let trunc width v =
  match width with
  | Width.W8 -> v
  | Width.W4 -> v land 0xffffffff
  | Width.W2 -> v land 0xffff
  | Width.W1 -> v land 0xff

let mem_addr th (m : Operand.mem) =
  let base = match m.base with Some r -> th.regs.(r) | None -> 0 in
  let index = match m.index with Some (r, s) -> th.regs.(r) * s | None -> 0 in
  base + index + m.disp

(* Does [th] record events now?  Not inside an excluded function. *)
let tracing th = th.traced && th.suppress_depth = 0

(* A memory access of the executing block; the block claims it when it
   finishes. *)
let record th ioff addr size is_store =
  if tracing th then Log.access th.log ~ioff ~addr ~size ~is_store

let eval_src m th ioff width (op : Operand.t) =
  match op with
  | Operand.Reg r -> trunc width th.regs.(r)
  | Operand.Imm n -> trunc width n
  | Operand.Mem mm ->
      let addr = mem_addr th mm in
      record th ioff addr (Width.bytes width) false;
      Memory.load m.mem ~width addr

let store_dst m th ioff width (op : Operand.t) v =
  match op with
  | Operand.Reg r -> th.regs.(r) <- trunc width v
  | Operand.Mem mm ->
      let addr = mem_addr th mm in
      record th ioff addr (Width.bytes width) true;
      Memory.store m.mem ~width addr v
  | Operand.Imm _ -> errf "thread %d: store to immediate operand" th.tid

(* The value a lock primitive names: memory operands denote their address
   (like [lea]); registers and immediates denote their value. *)
let lock_target th (op : Operand.t) =
  match op with
  | Operand.Mem mm -> mem_addr th mm
  | Operand.Reg r -> th.regs.(r)
  | Operand.Imm n -> n

type outcome =
  | Next
  | Goto of int
  | Do_call of int
  | Do_ret
  | Do_lock of int
  | Do_unlock of int
  | Do_io of int
  | Do_barrier of int
  | Do_halt

let exec_instr m th ioff (instr : (int, int) Instr.t) : outcome =
  match instr with
  | Instr.Mov (w, dst, src) ->
      let v = eval_src m th ioff w src in
      store_dst m th ioff w dst v;
      Next
  | Instr.Cmov (c, dst, src) ->
      let v = eval_src m th ioff Width.W8 src in
      (match dst with
      | Operand.Reg r -> if Cond.eval c th.fa th.fb then th.regs.(r) <- v
      | Operand.Imm _ | Operand.Mem _ ->
          errf "thread %d: cmov destination must be a register" th.tid);
      Next
  | Instr.Lea (r, mm) ->
      th.regs.(r) <- mem_addr th mm;
      Next
  | Instr.Binop (op, w, dst, src) ->
      let b = eval_src m th ioff w src in
      let a = eval_src m th ioff w dst in
      store_dst m th ioff w dst (trunc w (Op.eval_binop op a b));
      Next
  | Instr.Unop (op, w, dst) ->
      let a = eval_src m th ioff w dst in
      store_dst m th ioff w dst (trunc w (Op.eval_unop op a));
      Next
  | Instr.Cmp (w, x, y) ->
      th.fa <- eval_src m th ioff w x;
      th.fb <- eval_src m th ioff w y;
      Next
  | Instr.Jcc (c, target) -> if Cond.eval c th.fa th.fb then Goto target else Next
  | Instr.Jmp target -> Goto target
  | Instr.Call f -> Do_call f
  | Instr.Ret -> Do_ret
  | Instr.Lock_acquire op -> Do_lock (lock_target th op)
  | Instr.Lock_release op -> Do_unlock (lock_target th op)
  | Instr.Atomic_rmw (op, w, mm, src) ->
      let b = eval_src m th ioff w src in
      let addr = mem_addr th mm in
      record th ioff addr (Width.bytes w) false;
      let a = Memory.load m.mem ~width:w addr in
      record th ioff addr (Width.bytes w) true;
      Memory.store m.mem ~width:w addr (trunc w (Op.eval_binop op a b));
      Next
  | Instr.Io (_, cost) -> Do_io (eval_src m th ioff Width.W8 cost)
  | Instr.Barrier op -> Do_barrier (lock_target th op)
  | Instr.Halt -> Do_halt


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
  let f = m.prog.Program.funcs.(th.fid) in
  let blocks = f.Program.blocks in
  if th.bid >= Array.length blocks then
    errf "thread %d: fell off the end of %s" th.tid f.Program.name;
  let b = blocks.(th.bid) in
  let n = Array.length b.Program.instrs in
  m.instr_count <- m.instr_count + n;
  if m.instr_count > m.config.max_instrs then
    errf "instruction budget exceeded (%d): runaway program?"
      m.config.max_instrs;
  if th.suppress_depth > 0 then th.suppressed_instrs <- th.suppressed_instrs + n;
  let outcome = ref Next in
  for ioff = 0 to n - 1 do
    outcome := exec_instr m th ioff b.Program.instrs.(ioff)
  done;
  if tracing th then Log.block th.log ~func:th.fid ~block:th.bid ~n_instr:n;
  match !outcome with
  | Next -> th.bid <- th.bid + 1
  | Goto target -> th.bid <- target
  | Do_call callee ->
      if Vec.length th.callstack >= m.config.max_call_depth then
        errf "thread %d: call depth exceeded" th.tid;
      if th.suppress_depth > 0 then th.suppress_depth <- th.suppress_depth + 1
      else if m.untraced.(callee) then th.suppress_depth <- 1
      else if tracing th then Log.call th.log callee;
      Vec.push th.callstack (th.fid, th.bid + 1);
      th.fid <- callee;
      th.bid <- 0
  | Do_ret ->
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
        let fid, bid = Vec.pop th.callstack in
        th.fid <- fid;
        th.bid <- bid
      end
  | Do_halt -> th.state <- Finished
  | Do_io cost ->
      if cost > 0 && tracing th then Log.skip th.log Thread_trace.skip_io cost;
      th.bid <- th.bid + 1
  | Do_barrier addr ->
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
  | Do_lock addr ->
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
  | Do_unlock addr ->
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
    callstack = Vec.create (0, 0);
    state = Ready;
    log = Log.create ();
    traced = trace;
    pending_wake = None;
    blocked_since = 0;
    suppress_depth = 0;
    suppressed_instrs = 0;
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
