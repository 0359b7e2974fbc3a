(** First-order multicore CPU timing model.

    The paper normalizes its Fig. 6 GPU projections against multi-threaded
    execution on a real CPU; this model plays that role.  Each thread's
    dynamic trace is replayed on an in-order core at one instruction per
    cycle plus memory stalls from a private-L1 / shared-L2 / DRAM-latency
    hierarchy (reusing the {!Threadfuser_gpusim.Cache} model).  Threads are
    assigned round-robin to cores; a core runs its threads back to back and
    the program finishes when the slowest core does.  Skipped regions (I/O,
    lock spinning) are charged at one cycle per skipped instruction.

    {b Execution model: core-local legs + deterministic shared-L2 merge.}
    Like {!Threadfuser_gpusim.Gpusim}, the simulation is decoupled so the
    cores can run on separate domains ([-j]): each core replays its
    threads touching only its private L1 and logs every L1 miss with its
    core-local cycle stamp; a single deterministic reduction then replays
    the union of the logs through the shared L2 in total order
    [(cycle, core, emission order)], charging [l2_miss_penalty] back to
    the owning core per L2 miss.  Core-local time never feeds back into
    the shared level, so the merge degenerates to one epoch and the
    statistics are byte-identical at any domain count — and, on one core,
    identical to the historical inline walk (the log order {e is} the
    program order there). *)

module Cache = Threadfuser_gpusim.Cache
module Access_log = Threadfuser_gpusim.Access_log
module Thread_trace = Threadfuser_trace.Thread_trace
module Par_replay = Threadfuser.Par_replay

type config = {
  n_cores : int;
  l1 : Cache.config;
  l1_miss_penalty : int; (* to L2 *)
  l2 : Cache.config;
  l2_miss_penalty : int; (* to DRAM *)
  clock_ghz : float;
}

(* A Xeon-class 20-core part, like the paper's trace machine. *)
let default_config =
  {
    n_cores = 20;
    l1 = { Cache.size_bytes = 32 * 1024; assoc = 8; line_bytes = 64 };
    l1_miss_penalty = 12;
    l2 = { Cache.size_bytes = 8 * 1024 * 1024; assoc = 16; line_bytes = 64 };
    l2_miss_penalty = 180;
    clock_ghz = 3.0;
  }

type stats = {
  cycles : int; (* max over cores *)
  core_cycles : int array;
  instructions : int;
  l1_hit_rate : float;
}

type core = {
  l1 : Cache.t;
  mutable cycles : int; (* local leg: 1 IPC + L1 miss penalties *)
  mutable instrs : int; (* traced instructions (Block events) *)
  log : Access_log.t;
      (* L1 misses: the core-local cycle at which each request reaches L2
         (nondecreasing) and its address *)
}

(* Local leg of one thread on [core]: private L1 only; L1 misses are
   charged the L1 penalty and logged for the shared-L2 merge.  Also
   counts the thread's traced instructions. *)
let thread_cycles config core (trace : Thread_trace.t) =
  for i = 0 to Thread_trace.length trace - 1 do
    match trace.events.(i) with
    | Thread_trace.Block ->
        core.cycles <- core.cycles + trace.n_instr.(i);
        core.instrs <- core.instrs + trace.n_instr.(i);
        for j = trace.acc_off.(i) to trace.acc_off.(i + 1) - 1 do
          let addr = trace.addr.(j) in
          if not (Cache.access core.l1 addr) then begin
            core.cycles <- core.cycles + config.l1_miss_penalty;
            Access_log.add core.log ~ts:core.cycles addr
          end
        done
    | Thread_trace.Skip -> core.cycles <- core.cycles + trace.n_instr.(i)
    | Thread_trace.Lock_acq | Thread_trace.Lock_rel ->
        core.cycles <- core.cycles + 20
    | Thread_trace.Barrier -> core.cycles <- core.cycles + 40
    | Thread_trace.Call | Thread_trace.Return -> core.cycles <- core.cycles + 2
  done

(** [domains] partitions the cores over the persistent domain pool;
    statistics are byte-identical at any value. *)
let run ?(config = default_config) ?(domains = 1)
    (traces : Thread_trace.t array) : stats =
  if domains < 1 then invalid_arg "Cpusim.run: domains must be >= 1";
  let cores =
    Array.init config.n_cores (fun _ ->
        { l1 = Cache.create config.l1; cycles = 0; instrs = 0; log = Access_log.create () })
  in
  (* core-local legs: core c owns threads c, c + n_cores, ... in order *)
  Par_replay.parallel_for ~domains ~n:config.n_cores (fun c ->
      let core = cores.(c) in
      let i = ref c in
      while !i < Array.length traces do
        let trace = traces.(!i) in
        thread_cycles config core trace;
        i := !i + config.n_cores
      done);
  (* deterministic shared-L2 merge in (cycle, core, emission) order *)
  let l2 = Cache.create config.l2 in
  let extra = Array.make config.n_cores 0 in
  Access_log.merge
    (Array.map (fun c -> c.log) cores)
    (fun _ts core addr ->
      if not (Cache.access l2 addr) then
        extra.(core) <- extra.(core) + config.l2_miss_penalty);
  let core_cycles =
    Array.init config.n_cores (fun c -> cores.(c).cycles + extra.(c))
  in
  let l1_hits = Array.fold_left (fun a c -> a + c.l1.Cache.hits) 0 cores in
  let l1_total =
    Array.fold_left (fun a c -> a + c.l1.Cache.hits + c.l1.Cache.misses) 0 cores
  in
  {
    cycles = Array.fold_left max 0 core_cycles;
    core_cycles;
    instructions = Array.fold_left (fun a c -> a + c.instrs) 0 cores;
    l1_hit_rate =
      (if l1_total = 0 then 0.0 else float_of_int l1_hits /. float_of_int l1_total);
  }

(** Wall-clock seconds at the configured clock. *)
let seconds ~config (s : stats) =
  float_of_int s.cycles /. (config.clock_ghz *. 1e9)
