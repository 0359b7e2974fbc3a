(** Trace-driven cycle-level SIMT simulator — the repository's stand-in for
    Accel-Sim (paper §III, §V-A).

    Consumes the warp-level RISC traces the analyzer generates
    ({!Threadfuser.Warp_trace}) and models:

    - multiple SMs, each holding a bounded set of resident warps, with
      greedy-then-oldest (or loose-round-robin) scheduling and a configurable
      issue width;
    - in-order per-warp issue gated by a register scoreboard and an MSHR
      limit on outstanding loads;
    - a per-SM L1, a shared L2 and a bandwidth-limited DRAM channel, with
      per-access coalescing into 32 B transactions (the lane addresses come
      from the trace).

    {b Execution model: SM-local legs + cycle-epoch barrier merge.}  The
    simulation is decoupled so SMs can run on separate domains
    (docs/performance.md):

    - {e local leg}: each SM simulates only private state — its L1, its
      warps' scoreboards and MSHRs — with shared-memory responses taken at
      their contention-free nominal latency (L1 miss = L1 + L2 latency).
      Every L1 miss is appended to a per-SM access log stamped with the
      SM-local issue cycle.
    - {e epoch merge}: at each epoch boundary, a single deterministic
      reduction replays the union of all SMs' logged accesses through the
      shared L2 and the DRAM channel in total order [(cycle, sm, emission
      order)].  DRAM-bound responses complete later than their nominal
      time; the excess is charged back to the owning SM as a memory tail.
      An SM finishes at [max(issue-drain cycle, memory tail)], and the
      kernel when the slowest SM does.

    The local legs never read shared state and the merge folds a totally
    ordered stream, so the result is byte-identical at {e any} domain
    count and {e any} epoch length — epochs only bound the access-log
    memory and set the barrier cadence.  The output is total cycles plus
    pipeline/memory statistics, from which the Fig. 6 speedup projections
    are produced. *)

module Warp_trace = Threadfuser.Warp_trace
module Mask = Threadfuser.Mask
module Par_replay = Threadfuser.Par_replay
module Obs = Threadfuser_obs.Obs

let c_sim_cycles =
  Obs.Counter.make "tf_gpusim_cycles_total" ~help:"simulated GPU cycles"
let c_sim_instrs =
  Obs.Counter.make "tf_gpusim_instrs_total"
    ~help:"warp-level micro-ops issued by the cycle simulator"
let c_sim_epochs =
  Obs.Counter.make "tf_gpusim_epochs_total"
    ~help:"cycle-epoch barrier merges performed by the SM-parallel simulator"

type stats = {
  cycles : int;
  instructions : int; (* warp-level micro-ops issued *)
  thread_instructions : int; (* summed over active lanes *)
  l1_hits : int;
  l1_misses : int;
  l2_hits : int;
  l2_misses : int;
  dram_transactions : int;
  idle_cycles : int; (* SM-cycles a working SM spent not issuing *)
  (* per-SM stall attribution: each time an SM's scheduler finds nothing
     issuable it charges one episode to the priority warp's blocking
     reason, then sleeps to the next wake-up event *)
  stall_dependency : int; (* waiting on a register produced by ALU work *)
  stall_memory : int; (* waiting on an outstanding load / MSHR slot *)
  stall_empty : int; (* SM-cycles spent drained while the kernel ran on *)
}

let ipc s =
  if s.cycles = 0 then 0.0
  else float_of_int s.instructions /. float_of_int s.cycles

(* ------------------------------------------------------------------ *)

type warp_rt = {
  wid : int;
  ops : Warp_trace.entry array;
  mutable next : int;
  reg_ready : int array;
  mutable outstanding : int list; (* completion cycles of in-flight loads *)
}

type stall_reason = Dep_alu | Dep_mem

type issue_result = Issued | Not_ready of int * stall_reason | Done

(* One logged shared-memory access: an L1 miss the epoch merge must
   replay through the shared L2/DRAM.  [a_ts] is the SM-local issue
   cycle; within one SM the log is in emission order (ts nondecreasing),
   so concatenating the logs in SM order and stable-sorting on
   [(a_ts, a_sm)] yields the total merge order. *)
type access = { a_ts : int; a_sm : int; a_line : int }

type sm = {
  sm_id : int;
  l1 : Cache.t;
  mutable resident : warp_rt list; (* scheduling priority order *)
  pending : warp_rt Queue.t;
  mutable now : int; (* SM-local clock *)
  mutable sleeping : bool;
  mutable sleep_until : int;
      (* carried across epoch boundaries so chunking cannot re-charge a
         stall episode or change the wake-up cycle *)
  mutable finished : bool;
  mutable finish : int; (* issue-drain cycle *)
  mutable had_work : bool;
  mutable instrs : int;
  mutable tinstrs : int;
  mutable idle : int;
  mutable s_dep : int;
  mutable s_mem : int;
  (* this epoch's access log (grow-by-doubling; reset at each merge) *)
  mutable log : access array;
  mutable log_n : int;
  (* actual completion cycle of the SM's slowest DRAM-bound response *)
  mutable mem_tail : int;
}

let no_access = { a_ts = 0; a_sm = 0; a_line = 0 }

let log_access sm line =
  if sm.log_n = Array.length sm.log then begin
    let bigger =
      Array.make (max 64 (2 * Array.length sm.log)) no_access
    in
    Array.blit sm.log 0 bigger 0 sm.log_n;
    sm.log <- bigger
  end;
  sm.log.(sm.log_n) <- { a_ts = sm.now; a_sm = sm.sm_id; a_line = line };
  sm.log_n <- sm.log_n + 1

let lines_of_mem (m : Warp_trace.mem_op) =
  let lines = ref [] in
  Array.iter
    (fun addr ->
      if addr >= 0 then begin
        let first = addr / 32
        and last = (addr + max 1 m.Warp_trace.size - 1) / 32 in
        for l = first to last do
          if not (List.mem l !lines) then lines := l :: !lines
        done
      end)
    m.Warp_trace.addrs;
  !lines

(* Nominal completion cycle of a memory operation issued at [sm.now]:
   each 32 B transaction checks the private L1; misses are logged for the
   epoch merge and charged the contention-free L1+L2 latency.  The op
   completes when the last transaction does. *)
let memory_time (cfg : Config.t) sm (m : Warp_trace.mem_op) =
  let now = sm.now in
  List.fold_left
    (fun worst line ->
      let time =
        if Cache.access sm.l1 (line * 32) then now + cfg.Config.l1_latency
        else begin
          log_access sm line;
          now + cfg.Config.l1_latency + cfg.Config.l2_latency
        end
      in
      max worst time)
    (now + cfg.Config.l1_latency)
    (lines_of_mem m)

let try_issue (cfg : Config.t) sm (w : warp_rt) : issue_result =
  if w.next >= Array.length w.ops then Done
  else begin
    let now = sm.now in
    let entry = w.ops.(w.next) in
    let op = entry.Warp_trace.op in
    let dep_ready =
      Array.fold_left
        (fun acc r -> if r >= 0 then max acc w.reg_ready.(r) else acc)
        0 op.Warp_trace.srcs
    in
    if dep_ready > now then begin
      (* attribute the dependency to memory if an outstanding load will
         complete exactly then (the common long-latency case) *)
      let reason =
        if List.exists (fun c -> c >= dep_ready) w.outstanding then Dep_mem
        else Dep_alu
      in
      Not_ready (dep_ready, reason)
    end
    else begin
      w.outstanding <- List.filter (fun c -> c > now) w.outstanding;
      let mshr_full =
        match op.Warp_trace.mem with
        | Some m ->
            (not m.Warp_trace.is_store)
            && List.length w.outstanding >= cfg.Config.mshr_per_warp
        | None -> false
      in
      if mshr_full then
        Not_ready (List.fold_left min max_int w.outstanding, Dep_mem)
      else begin
        (let completion =
           match op.Warp_trace.mem with
           | Some m ->
               let c = memory_time cfg sm m in
               if not m.Warp_trace.is_store then
                 w.outstanding <- c :: w.outstanding;
               c
           | None -> now + Config.latency_of op.Warp_trace.cls
         in
         if op.Warp_trace.dst >= 0 then
           w.reg_ready.(op.Warp_trace.dst) <- completion);
        w.next <- w.next + 1;
        sm.instrs <- sm.instrs + 1;
        sm.tinstrs <- sm.tinstrs + Mask.count entry.Warp_trace.mask;
        Issued
      end
    end
  end

(* Advance one SM's local leg to (at most) cycle [until].  Pure function
   of the SM's own state: no shared reads, no clock coupling — chunking
   the timeline at any epoch boundary resumes bit-exactly.  Stall
   episodes are charged once at sleep entry; the slept cycles accrue as
   idle time however the sleep is chunked. *)
let step_sm (cfg : Config.t) sm ~until =
  while (not sm.finished) && sm.now < until do
    if sm.sleeping then begin
      let target = min sm.sleep_until until in
      sm.idle <- sm.idle + (target - sm.now);
      sm.now <- target;
      if sm.now >= sm.sleep_until then sm.sleeping <- false
    end
    else begin
      while
        List.length sm.resident < cfg.Config.max_warps_per_sm
        && not (Queue.is_empty sm.pending)
      do
        sm.resident <- sm.resident @ [ Queue.pop sm.pending ]
      done;
      if sm.resident = [] then begin
        sm.finished <- true;
        sm.finish <- sm.now
      end
      else begin
        let issued = ref 0 and next_event = ref max_int in
        let first_reason = ref None in
        let issued_warps = ref [] and stalled = ref [] in
        List.iter
          (fun w ->
            if !issued >= cfg.Config.issue_width then stalled := w :: !stalled
            else
              match try_issue cfg sm w with
              | Issued ->
                  incr issued;
                  issued_warps := w :: !issued_warps
              | Not_ready (e, reason) ->
                  if e < !next_event then next_event := e;
                  if !first_reason = None then first_reason := Some reason;
                  stalled := w :: !stalled
              | Done -> () (* retire from residency *))
          sm.resident;
        (* GTO: warps that issued keep priority; LRR: they rotate to the
           back. *)
        sm.resident <-
          (match cfg.Config.scheduler with
          | Config.Gto -> List.rev_append !issued_warps (List.rev !stalled)
          | Config.Lrr -> List.rev_append !stalled (List.rev !issued_warps));
        if !issued > 0 then sm.now <- sm.now + 1
        else if sm.resident = [] && Queue.is_empty sm.pending then begin
          sm.finished <- true;
          sm.finish <- sm.now
        end
        else begin
          let target =
            if !next_event = max_int then sm.now + 1
            else max (sm.now + 1) !next_event
          in
          (match !first_reason with
          | Some Dep_mem -> sm.s_mem <- sm.s_mem + 1
          | Some Dep_alu | None -> sm.s_dep <- sm.s_dep + 1);
          sm.sleeping <- true;
          sm.sleep_until <- target
        end
      end
    end
  done

let default_epoch = 4096

(** Run a kernel (one warp trace) to completion.  [domains] partitions
    the SMs across the persistent domain pool; [epoch] sets the
    cycle-epoch barrier length.  Both only change wall-clock: the stats
    are byte-identical at any [domains] and any [epoch >= 1]. *)
let run ?(config = Config.rtx3070) ?(domains = 1) ?(epoch = default_epoch)
    (wt : Warp_trace.t) : stats =
  let epoch = max 1 epoch in
  Obs.span "gpusim"
    ~args:
      [
        ("warps", string_of_int (Array.length wt.Warp_trace.warps));
        ("domains", string_of_int domains);
        ("epoch", string_of_int epoch);
      ]
  @@ fun () ->
  let l2 = Cache.create config.Config.l2 in
  let dram =
    Dram.create ~latency:config.Config.dram_latency
      ~transactions_per_cycle:config.Config.dram_txns_per_cycle
  in
  let sms =
    Array.init config.Config.n_sms (fun sm_id ->
        {
          sm_id;
          l1 = Cache.create config.Config.l1;
          resident = [];
          pending = Queue.create ();
          now = 0;
          sleeping = false;
          sleep_until = 0;
          finished = false;
          finish = 0;
          had_work = false;
          instrs = 0;
          tinstrs = 0;
          idle = 0;
          s_dep = 0;
          s_mem = 0;
          log = [||];
          log_n = 0;
          mem_tail = 0;
        })
  in
  Array.iteri
    (fun i (w : Warp_trace.warp) ->
      if Array.length w.Warp_trace.ops > 0 then begin
        let sm = sms.(i mod config.Config.n_sms) in
        sm.had_work <- true;
        Queue.add
          {
            wid = w.Warp_trace.warp_id;
            ops = w.Warp_trace.ops;
            next = 0;
            reg_ready = Array.make Warp_trace.reg_file_size 0;
            outstanding = [];
          }
          sm.pending
      end)
    wt.Warp_trace.warps;
  (* work only the SMs that got warps; drained ones are finalized below *)
  let active = Array.of_list (List.filter (fun sm -> sm.had_work) (Array.to_list sms)) in
  Array.iter
    (fun sm -> if not sm.had_work then sm.finished <- true)
    sms;
  let horizon = ref epoch and epochs = ref 0 in
  let merge_buf = ref [||] in
  while Array.exists (fun sm -> not sm.finished) active do
    incr epochs;
    (* local legs: disjoint SM partitions, any domain count *)
    Par_replay.parallel_for ~domains ~n:(Array.length active) (fun i ->
        step_sm config active.(i) ~until:!horizon);
    (* deterministic barrier merge: replay this epoch's L1 misses through
       the shared L2/DRAM in (cycle, sm, emission) total order.  Epochs
       partition the logs by timestamp, so chunking is invisible. *)
    let total = Array.fold_left (fun acc sm -> acc + sm.log_n) 0 active in
    if total > 0 then begin
      if Array.length !merge_buf < total then
        merge_buf := Array.make total no_access;
      let buf = !merge_buf in
      let k = ref 0 in
      Array.iter
        (fun sm ->
          Array.blit sm.log 0 buf !k sm.log_n;
          k := !k + sm.log_n;
          sm.log_n <- 0)
        active;
      let slice = Array.sub buf 0 total in
      Array.stable_sort
        (fun a b -> compare (a.a_ts, a.a_sm) (b.a_ts, b.a_sm))
        slice;
      Array.iter
        (fun a ->
          if not (Cache.access l2 (a.a_line * 32)) then begin
            let c = Dram.access dram ~now:a.a_ts in
            let done_at =
              c + config.Config.l1_latency + config.Config.l2_latency
            in
            let sm = sms.(a.a_sm) in
            if done_at > sm.mem_tail then sm.mem_tail <- done_at
          end)
        slice
    end;
    horizon := !horizon + epoch
  done;
  (* fan-in: every tally is per-SM and additive *)
  let cycles =
    Array.fold_left
      (fun acc sm -> max acc (max sm.finish sm.mem_tail))
      0 active
  in
  let instructions = Array.fold_left (fun a sm -> a + sm.instrs) 0 sms in
  let stall_empty =
    Array.fold_left
      (fun acc sm ->
        acc + max 0 (cycles - max sm.finish sm.mem_tail))
      0 sms
  in
  Obs.Counter.add c_sim_cycles cycles;
  Obs.Counter.add c_sim_instrs instructions;
  Obs.Counter.add c_sim_epochs !epochs;
  {
    cycles;
    instructions;
    thread_instructions = Array.fold_left (fun a sm -> a + sm.tinstrs) 0 sms;
    l1_hits = Array.fold_left (fun acc sm -> acc + sm.l1.Cache.hits) 0 sms;
    l1_misses = Array.fold_left (fun acc sm -> acc + sm.l1.Cache.misses) 0 sms;
    l2_hits = l2.Cache.hits;
    l2_misses = l2.Cache.misses;
    dram_transactions = dram.Dram.transactions;
    idle_cycles = Array.fold_left (fun a sm -> a + sm.idle) 0 sms;
    stall_dependency = Array.fold_left (fun a sm -> a + sm.s_dep) 0 sms;
    stall_memory = Array.fold_left (fun a sm -> a + sm.s_mem) 0 sms;
    stall_empty;
  }

(** Wall-clock seconds at the configured core clock. *)
let seconds ~(config : Config.t) (s : stats) =
  float_of_int s.cycles /. (config.Config.clock_ghz *. 1e9)

let pp_stats ppf s =
  Fmt.pf ppf
    "cycles=%d instrs=%d ipc=%.2f l1=%d/%d l2=%d/%d dram=%d idle=%d \
     stalls[mem=%d dep=%d empty=%d]"
    s.cycles s.instructions (ipc s) s.l1_hits s.l1_misses s.l2_hits
    s.l2_misses s.dram_transactions s.idle_cycles s.stall_memory
    s.stall_dependency s.stall_empty

(* Dominant bottleneck, for advisor-style summaries.  Stall counters count
   stall *episodes* (each SM charges one per sleep entry, then skips ahead
   through the quiet period), so they are compared against each other and
   against the issue count rather than against raw cycles. *)
let bottleneck s =
  let total = s.stall_memory + s.stall_dependency in
  if total * 4 < s.instructions then `Throughput
  else if s.stall_memory >= s.stall_dependency then `Memory
  else `Dependencies
