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
    are produced.

    {b Hot path.}  Issue reads the warp trace's flat columns in place
    (template index, mask, memory record; the templates are unpacked once
    per run into int arrays) and allocates nothing per micro-op: each SM
    keeps its residents in an array partitioned stably in place, its
    op's distinct 32 B lines in a scratch buffer visited newest first,
    and a failed issue's wake-up cycle and stall reason in its own
    fields; each warp keeps its in-flight loads in an int array; the
    access logs are int columns merged by {!Access_log}. *)

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

(* The kernel's templates, unpacked once per run into int columns the
   issue loop indexes: destination, ALU latency and source registers
   ([srcs.(src_off.(k)) .. srcs.(src_off.(k + 1) - 1)]) of template [k]. *)
type code = {
  dst : int array;
  lat : int array;
  src_off : int array;
  srcs : int array;
  warp_size : int; (* lanes per memory record *)
}

let code_of (wt : Warp_trace.t) =
  let tpls = wt.Warp_trace.templates in
  let n = Array.length tpls in
  let src_off = Array.make (n + 1) 0 in
  Array.iteri
    (fun k (tp : Warp_trace.template) ->
      src_off.(k + 1) <- src_off.(k) + Array.length tp.Warp_trace.t_srcs)
    tpls;
  {
    dst = Array.map (fun (tp : Warp_trace.template) -> tp.Warp_trace.t_dst) tpls;
    lat =
      Array.map (fun (tp : Warp_trace.template) -> Config.latency_of tp.Warp_trace.t_cls) tpls;
    src_off;
    srcs = Array.concat (Array.to_list (Array.map (fun tp -> tp.Warp_trace.t_srcs) tpls));
    warp_size = wt.Warp_trace.warp_size;
  }

(* One resident warp, reading its trace's columns in place. *)
type warp_rt = {
  w : Warp_trace.warp;
  n_ops : int;
  mutable next : int;
  reg_ready : int array;
  out : int array; (* completion cycles of in-flight loads, [0, n_out) *)
  mutable n_out : int;
}

(* [try_issue] results; a [not_ready] leaves its wake-up cycle and stall
   reason in the SM's [wake]/[reason]. *)
let issued = 0

let not_ready = 1

let retired = 2

(* stall reasons *)
let dep_alu = 0

let dep_mem = 1

let no_reason = -1

type sm = {
  l1 : Cache.t;
  res : warp_rt array; (* resident warps [0, n_res), scheduling priority order *)
  mutable n_res : int;
  spare : warp_rt array; (* scratch for the stable residency partition *)
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
  log : Access_log.t; (* this epoch's L1 misses: (issue cycle, line) *)
  (* actual completion cycle of the SM's slowest DRAM-bound response *)
  mutable mem_tail : int;
  mutable lines : int array; (* scratch: distinct 32 B lines of one op *)
  mutable wake : int;
  mutable reason : int;
}

(* Nominal completion cycle of the memory operation whose record starts
   at [o] in [m], issued at [sm.now]: each 32 B transaction checks the
   private L1; misses are logged for the epoch merge and charged the
   contention-free L1+L2 latency.  The op completes when the last
   transaction does.  Lines are collected distinct in lane order and
   visited newest first. *)
let memory_time (cfg : Config.t) code sm m o =
  let size = max 1 m.(o + 1) in
  let n = ref 0 in
  for lane = 0 to code.warp_size - 1 do
    let addr = m.(o + 3 + lane) in
    if addr >= 0 then
      for l = addr / 32 to (addr + size - 1) / 32 do
        let j = ref 0 in
        while !j < !n && sm.lines.(!j) <> l do
          incr j
        done;
        if !j = !n then begin
          if !n = Array.length sm.lines then begin
            let bigger = Array.make (2 * !n) 0 in
            Array.blit sm.lines 0 bigger 0 !n;
            sm.lines <- bigger
          end;
          sm.lines.(!n) <- l;
          incr n
        end
      done
  done;
  let now = sm.now in
  let worst = ref (now + cfg.Config.l1_latency) in
  for j = !n - 1 downto 0 do
    let line = sm.lines.(j) in
    let time =
      if Cache.access sm.l1 (line * 32) then now + cfg.Config.l1_latency
      else begin
        Access_log.add sm.log ~ts:now line;
        now + cfg.Config.l1_latency + cfg.Config.l2_latency
      end
    in
    if time > !worst then worst := time
  done;
  !worst

let try_issue (cfg : Config.t) code sm (w : warp_rt) =
  if w.next >= w.n_ops then retired
  else begin
    let now = sm.now in
    let i = w.next in
    let k = w.w.Warp_trace.op_tpl.(i) in
    let dep_ready = ref 0 in
    for j = code.src_off.(k) to code.src_off.(k + 1) - 1 do
      let r = code.srcs.(j) in
      if r >= 0 && w.reg_ready.(r) > !dep_ready then dep_ready := w.reg_ready.(r)
    done;
    if !dep_ready > now then begin
      (* attribute the dependency to memory if an outstanding load will
         complete exactly then (the common long-latency case) *)
      let on_mem = ref false in
      for j = 0 to w.n_out - 1 do
        if w.out.(j) >= !dep_ready then on_mem := true
      done;
      sm.wake <- !dep_ready;
      sm.reason <- (if !on_mem then dep_mem else dep_alu);
      not_ready
    end
    else begin
      let live = ref 0 in
      for j = 0 to w.n_out - 1 do
        let c = w.out.(j) in
        if c > now then begin
          w.out.(!live) <- c;
          incr live
        end
      done;
      w.n_out <- !live;
      let m = w.w.Warp_trace.mem_recs and o = w.w.Warp_trace.op_mem.(i) in
      let is_load = o >= 0 && m.(o) = 0 in
      if is_load && w.n_out >= cfg.Config.mshr_per_warp then begin
        let first = ref max_int in
        for j = 0 to w.n_out - 1 do
          if w.out.(j) < !first then first := w.out.(j)
        done;
        sm.wake <- !first;
        sm.reason <- dep_mem;
        not_ready
      end
      else begin
        let completion =
          if o >= 0 then begin
            let c = memory_time cfg code sm m o in
            if is_load then begin
              w.out.(w.n_out) <- c;
              w.n_out <- w.n_out + 1
            end;
            c
          end
          else now + code.lat.(k)
        in
        if code.dst.(k) >= 0 then w.reg_ready.(code.dst.(k)) <- completion;
        w.next <- i + 1;
        sm.instrs <- sm.instrs + 1;
        sm.tinstrs <- sm.tinstrs + Mask.count w.w.Warp_trace.op_mask.(i);
        issued
      end
    end
  end

(* Advance one SM's local leg to (at most) cycle [until].  Pure function
   of the SM's own state: no shared reads, no clock coupling — chunking
   the timeline at any epoch boundary resumes bit-exactly.  Stall
   episodes are charged once at sleep entry; the slept cycles accrue as
   idle time however the sleep is chunked. *)
let step_sm (cfg : Config.t) code sm ~until =
  while (not sm.finished) && sm.now < until do
    if sm.sleeping then begin
      let target = min sm.sleep_until until in
      sm.idle <- sm.idle + (target - sm.now);
      sm.now <- target;
      if sm.now >= sm.sleep_until then sm.sleeping <- false
    end
    else begin
      while
        sm.n_res < cfg.Config.max_warps_per_sm && not (Queue.is_empty sm.pending)
      do
        sm.res.(sm.n_res) <- Queue.pop sm.pending;
        sm.n_res <- sm.n_res + 1
      done;
      if sm.n_res = 0 then begin
        sm.finished <- true;
        sm.finish <- sm.now
      end
      else begin
        (* Stable partition of the residents into the warps that issued
           and those that stalled (retired warps leave).  GTO: warps that
           issued keep priority; LRR: they rotate to the back.  The front
           group compacts in place, the back group goes to [spare]. *)
        let issued_first = cfg.Config.scheduler = Config.Gto in
        let n_issued = ref 0 and next_event = ref max_int in
        let first_reason = ref no_reason in
        let n_front = ref 0 and n_back = ref 0 in
        for i = 0 to sm.n_res - 1 do
          let w = sm.res.(i) in
          let r =
            if !n_issued >= cfg.Config.issue_width then not_ready
            else begin
              let r = try_issue cfg code sm w in
              if r = issued then incr n_issued
              else if r = not_ready then begin
                if sm.wake < !next_event then next_event := sm.wake;
                if !first_reason = no_reason then first_reason := sm.reason
              end;
              r
            end
          in
          if r = retired then ()
          else if r = issued = issued_first then begin
            sm.res.(!n_front) <- w;
            incr n_front
          end
          else begin
            sm.spare.(!n_back) <- w;
            incr n_back
          end
        done;
        Array.blit sm.spare 0 sm.res !n_front !n_back;
        sm.n_res <- !n_front + !n_back;
        if !n_issued > 0 then sm.now <- sm.now + 1
        else if sm.n_res = 0 && Queue.is_empty sm.pending then begin
          sm.finished <- true;
          sm.finish <- sm.now
        end
        else begin
          let target =
            if !next_event = max_int then sm.now + 1
            else max (sm.now + 1) !next_event
          in
          if !first_reason = dep_mem then sm.s_mem <- sm.s_mem + 1
          else sm.s_dep <- sm.s_dep + 1;
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
  if domains < 1 then invalid_arg "Gpusim.run: domains must be >= 1";
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
  let code = code_of wt in
  let no_warp =
    {
      w = { Warp_trace.warp_id = -1; op_tpl = [||]; op_mask = [||]; op_mem = [||]; mem_recs = [||] };
      n_ops = 0;
      next = 0;
      reg_ready = [||];
      out = [||];
      n_out = 0;
    }
  in
  let sms =
    Array.init config.Config.n_sms (fun _ ->
        {
          l1 = Cache.create config.Config.l1;
          res = Array.make config.Config.max_warps_per_sm no_warp;
          n_res = 0;
          spare = Array.make config.Config.max_warps_per_sm no_warp;
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
          log = Access_log.create ();
          mem_tail = 0;
          lines = Array.make 64 0;
          wake = 0;
          reason = no_reason;
        })
  in
  Array.iteri
    (fun i (w : Warp_trace.warp) ->
      let n_ops = Warp_trace.n_ops w in
      if n_ops > 0 then begin
        let sm = sms.(i mod config.Config.n_sms) in
        sm.had_work <- true;
        Queue.add
          {
            w;
            n_ops;
            next = 0;
            reg_ready = Array.make Warp_trace.reg_file_size 0;
            out = Array.make (max 0 config.Config.mshr_per_warp) 0;
            n_out = 0;
          }
          sm.pending
      end)
    wt.Warp_trace.warps;
  (* work only the SMs that got warps; drained ones are finalized below *)
  let active = Array.of_list (List.filter (fun sm -> sm.had_work) (Array.to_list sms)) in
  Array.iter
    (fun sm -> if not sm.had_work then sm.finished <- true)
    sms;
  let logs = Array.map (fun sm -> sm.log) active in
  (* deterministic barrier merge: replay an epoch's L1 misses through
     the shared L2/DRAM in (cycle, sm, emission) total order.  Epochs
     partition the logs by timestamp, so chunking is invisible. *)
  let shared ts u line =
    if not (Cache.access l2 (line * 32)) then begin
      let c = Dram.access dram ~now:ts in
      let done_at = c + config.Config.l1_latency + config.Config.l2_latency in
      let sm = active.(u) in
      if done_at > sm.mem_tail then sm.mem_tail <- done_at
    end
  in
  let horizon = ref epoch and epochs = ref 0 in
  while Array.exists (fun sm -> not sm.finished) active do
    incr epochs;
    (* local legs: disjoint SM partitions, any domain count *)
    Par_replay.parallel_for ~domains ~n:(Array.length active) (fun i ->
        step_sm config code active.(i) ~until:!horizon);
    Access_log.merge logs shared;
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
