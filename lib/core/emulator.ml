(** The SIMT-stack warp emulator — ThreadFuser's analysis core (paper §III).

    Given the per-thread traces of the lanes fused into one warp, the
    emulator replays them in lock-step under the stack-based IPDOM
    reconvergence discipline of real SIMT hardware:

    - a stack entry holds a function context, the next node to execute, the
      node at which the entry pops (its reconvergence point) and an active
      mask;
    - executing a block consumes one [Block] event from every active lane
      and charges one lock-step issue per instruction;
    - when lanes branch to different blocks, the entry retargets to the
      divergent block's immediate post-dominator and one child entry per
      distinct destination is pushed;
    - calls push a function frame whose reconvergence point is the callee's
      virtual exit (the per-function DCFG discipline);
    - lock acquires by lanes contending on the same lock serialize those
      lanes through their critical sections ([Serialize] mode; [Serialize_all]
      serializes every lane, [Ignore_sync] none), exactly one lane active at
      a time, reconverging afterwards through the ordinary divergence
      mechanism (their nearest common post-dominator, i.e. the post-unlock
      continuation).

    The emulator simultaneously drives the coalescing model and (optionally)
    emits the cracked warp-level RISC trace for the cycle simulator.

    The replay loop pays per active lane, not per mask bit: a block's mask
    is walked once, into the lane list [scratch.lane_ids], and every later
    per-lane step of the block (accounting, markers, regrouping) iterates
    that list. *)

module Program = Threadfuser_prog.Program
module Event = Threadfuser_trace.Event
module Thread_trace = Threadfuser_trace.Thread_trace
module Ipdom = Threadfuser_cfg.Ipdom
module Tf_error = Threadfuser_util.Tf_error
module Vec = Threadfuser_util.Vec
open Threadfuser_isa

(* Lane index of a one-bit mask [b = 1 lsl lane] ([lane < Mask.max_lanes]):
   the powers 2^0 .. 2^65 are distinct mod 67, so a 67-entry table
   inverts them, and [mod] by a constant compiles to a multiply.  With
   [m land (-m)] (the lowest set bit) this walks a mask's set bits in
   ascending lane order, one step per active lane. *)
let lane_of_bit =
  let tbl = Array.make 67 0 in
  for lane = 0 to Mask.max_lanes - 1 do
    tbl.((1 lsl lane) mod 67) <- lane
  done;
  tbl

let[@inline] lane_of b = Array.unsafe_get lane_of_bit (b mod 67)

exception Emulation_error of string

let errf fmt = Fmt.kstr (fun s -> raise (Emulation_error s)) fmt

(* Replay fuel: a watchdog charge consumed on every stack step and every
   serialized event, so a corrupt trace can bound-fail with a typed
   [Tf_error.Timeout] instead of spinning.  [None] (the default) replays
   unbounded, preserving the unchecked [analyze] path exactly. *)
type fuel = int ref option

let burn (fuel : fuel) ~warp_id =
  match fuel with
  | None -> ()
  | Some f ->
      if !f <= 0 then
        Tf_error.fail Tf_error.Timeout
          "warp %d: replay exceeded its fuel bound (livelock watchdog)"
          warp_id;
      decr f

type sync_mode = Serialize | Serialize_all | Ignore_sync

type reconv_mode = Ipdom_reconv | Function_exit_reconv

type config = {
  warp_size : int;
  sync : sync_mode;
  reconv : reconv_mode;
  record_timeline : bool;
}

(* ------------------------------------------------------------------ *)
(* Site-level divergence attribution.  Every split is tagged with the
   branch (or lock) site that caused it, and every block executed inside
   the divergent region charges the site its marginal lost-lane cost:
   (parent active lanes - child active lanes) inactive issue slots per
   lock-step issue, accumulated until the child pops at its reconvergence
   point.  Nested splits chain, so each site is charged exactly the
   divergence it introduced. *)

type site_kind =
  | Branch_site (* lanes branched to different blocks *)
  | Sync_site (* lock serialization scattered the lanes *)

type div_site_cell = {
  mutable sc_splits : int; (* warp splits originating at the site *)
  mutable sc_lost : int; (* inactive-lane issue slots charged to it *)
  mutable sc_kind : site_kind;
}

(* Folded-stack accumulation for the replay flamegraph: the warp's call
   stack (leaf first) -> lock-step issues and lost-lane issue slots. *)
type flame_cell = { mutable fc_issues : int; mutable fc_lost : int }

(* Per-site static block facts, flat and indexed by the divergence site
   [div_base.(func) + block], built once at [create] so the replay loop
   reads one array slot per fact instead of walking [Program]. *)
type blocks = {
  b_ninstr : int array; (* instructions in the block *)
  b_term : (int, int) Instr.t array; (* its terminator (last instruction) *)
  b_first : int array; (* coalescing site of its first instruction *)
}

(* The SIMT stack, as monomorphic columns indexed by stack slot
   ([0 .. sp - 1], top at [sp - 1]).  Slot [i] is an entry: function
   [func], next node [pc], reconvergence node [reconv], active [mask],
   [frame] (its pop leaves the function), and one blame link
   ([bl_site], [bl_lost], [bl_up]): the divergence site that split this
   entry off, the lanes it lost per lock-step issue, and the slot whose
   link continues the chain ([-1] ends it).  A divergent child links to
   its parent; a function frame copies its caller's link, so it charges
   exactly the caller's chain.  A link stays valid while its entry is
   live, because every slot a chain names lies below it on the stack.
   The columns keep one spare slot above the top (see {!handle_locks}). *)
type stack = {
  mutable func : int array;
  mutable pc : int array;
  mutable reconv : int array;
  mutable mask : Mask.t array;
  mutable frame : bool array;
  mutable bl_site : int array;
  mutable bl_lost : int array;
  mutable bl_up : int array;
  mutable sp : int;
}

(* Reusable hot-path buffers (the replay allocation diet): one warp
   replays at a time per emulator, so the block path borrows these
   instead of allocating per block / per instruction.  [traces] and
   [pos] are the replaying warp's lanes and their read positions (see
   {!peek}).  [lane_ids] holds the lanes of the block being executed,
   staged once per block from its mask; [lane_ptr]/[lane_end] their
   access ranges and [first_io] the smallest first-access ioff among
   them.  [staged] says that [lane_ids]
   already holds the next block's lanes, each at a Block of it (a uniform
   {!regroup} checked them).  The [ld_*] / [st_*] triples gather the
   current instruction's memory accesses (growable: a lane may access
   several addresses per instruction); the [grp_*] columns collect the
   distinct branch targets of a regroup; the [lk_*] pair the lock
   addresses of a lock-acquire block. *)
type scratch = {
  lane_ids : int array; (* active lanes of the current block, ascending *)
  lane_ptr : int array; (* per active lane: next access in its trace *)
  lane_end : int array; (* per active lane: end of the block's accesses *)
  mutable n_lanes : int;
  mutable first_io : int; (* min first-access ioff, or [max_int] *)
  mutable staged : bool;
  mutable traces : Thread_trace.t array; (* the replaying warp's lanes *)
  pos : int array; (* per lane: its read position in [traces.(lane)] *)
  mutable ld_lane : int array;
  mutable ld_addr : int array;
  mutable ld_size : int array;
  mutable n_ld : int;
  mutable st_lane : int array;
  mutable st_addr : int array;
  mutable st_size : int array;
  mutable n_st : int;
  grp_target : int array; (* distinct regroup targets *)
  grp_mask : Mask.t array;
  grp_count : int array; (* lanes per target *)
  mutable n_groups : int;
  lane_group : int array; (* per staged lane: its target's group *)
  lk_lane : int array; (* lock-acquire lanes, then sorted by address *)
  lk_addr : int array;
}

type t = {
  prog : Program.t;
  ipdoms : Ipdom.t array; (* per function *)
  config : config;
  coalesce : Coalesce.t;
  site_issues : int array; (* per divergence site: lock-step issues *)
  site_instrs : int array; (* per divergence site: thread instructions *)
  mutable issues : int;
  mutable thread_instrs : int;
  mutable lock_acquires : int;
  mutable serializations : int;
  mutable serialized_instrs : int;
  mutable barrier_syncs : int; (* warp-level barrier crossings *)
  mutable skipped_io : int; (* Skip instructions the lanes' reads reached *)
  mutable skipped_spin : int;
  mutable skipped_excluded : int;
  wt : Warp_trace.Builder.emitter option;
  mutable tl_current : Timeline.sample Vec.t option; (* active warp's samples *)
  mutable timelines : Timeline.t list; (* finished warps, reversed *)
  div_base : int array; (* per function: site index of its block 0 *)
  div_sites : div_site_cell array; (* one per static block *)
  blocks : blocks;
  flame : (int list, flame_cell) Hashtbl.t; (* call stack (leaf first) *)
  mutable call_stack : int list; (* replaying warp's frames, leaf first *)
  mutable flame_cur : flame_cell option; (* cached cell for [call_stack] *)
  stack : stack;
  scratch : scratch;
}

(* ------------------------------------------------------------------ *)
(* Lane reads                                                           *)

(* Lane [lane] reads its trace [traces.(lane)] at [pos.(lane)], by index
   into the trace's columns (see {!Thread_trace.t}).  [Skip] events (I/O,
   lock spinning, excluded calls) carry no control flow: a read absorbs
   them into [t]'s skip counters only when it reaches them, so a warp
   that aborts mid-replay counts exactly the skips its lanes reached
   (paper Fig. 8 reports their share).

   Every lane the replay reads is a bit of a mask inside [Mask.full
   n_lanes], where [n_lanes = Array.length traces], and {!replay_warp}
   refuses a warp with more lanes than [pos] holds before the first read;
   so [lane] is in bounds of both columns and [lane_trace]/[lane_pos]
   skip the check. *)

let[@inline] lane_trace s lane = Array.unsafe_get s.traces lane
let[@inline] lane_pos s lane = Array.unsafe_get s.pos lane
let[@inline] set_pos s lane p = Array.unsafe_set s.pos lane p

(* Absorb the Skips from the lane's position on, leaving it at the next
   non-Skip event or the end of the trace. *)
let absorb_run t lane =
  let s = t.scratch in
  let tr = lane_trace s lane in
  let kinds = tr.Thread_trace.events in
  let p = ref (lane_pos s lane) in
  while !p < Array.length kinds && kinds.(!p) = Thread_trace.Skip do
    let n = tr.Thread_trace.n_instr.(!p)
    and code = tr.Thread_trace.ev.(3 * !p) in
    if code = Thread_trace.skip_io then t.skipped_io <- t.skipped_io + n
    else if code = Thread_trace.skip_spin then
      t.skipped_spin <- t.skipped_spin + n
    else t.skipped_excluded <- t.skipped_excluded + n;
    incr p
  done;
  set_pos s lane !p

(* The kind of the lane's next non-Skip event, or [Skip] at the end of
   the trace; {!absorb_run} runs only when there is a Skip to absorb.
   [arg] and [block_id] read the peeked event's words of the stride-3
   [ev] column. *)
let[@inline] peek t lane =
  let s = t.scratch in
  let kinds = (lane_trace s lane).Thread_trace.events and p = lane_pos s lane in
  if p < Array.length kinds then
    match Array.unsafe_get kinds p with
    | Thread_trace.Skip ->
        absorb_run t lane;
        let p = lane_pos s lane in
        if p < Array.length kinds then Array.unsafe_get kinds p
        else Thread_trace.Skip
    | k -> k
  else Thread_trace.Skip

let[@inline] advance t lane =
  let s = t.scratch in
  let p = lane_pos s lane in
  if p < Array.length (lane_trace s lane).Thread_trace.events then
    set_pos s lane (p + 1)

let[@inline] next t lane =
  let k = peek t lane in
  advance t lane;
  k

let[@inline] arg t lane =
  let s = t.scratch in
  (lane_trace s lane).Thread_trace.ev.(3 * lane_pos s lane)

let[@inline] block_id t lane =
  let s = t.scratch in
  (lane_trace s lane).Thread_trace.ev.((3 * lane_pos s lane) + 1)

let end_of_trace = Event.Skip { reason = Event.Io; n_instr = 0 }

(* The lane's next non-Skip event as an {!Event.t} view, or a [Skip] at
   the end of the trace: for error messages only. *)
let event t lane =
  absorb_run t lane;
  let s = t.scratch in
  let tr = lane_trace s lane and p = lane_pos s lane in
  if p < Array.length tr.Thread_trace.events then Thread_trace.get tr p
  else end_of_trace

let at_end t lane =
  absorb_run t lane;
  let s = t.scratch in
  lane_pos s lane >= Array.length (lane_trace s lane).Thread_trace.events

let create ?(warp_trace : Warp_trace.Builder.t option) prog ipdoms config =
  let ws = config.warp_size in
  let nf = Program.func_count prog in
  let div_base = Array.make (nf + 1) 0 in
  for fid = 0 to nf - 1 do
    div_base.(fid + 1) <-
      div_base.(fid) + Program.block_count (Program.func prog fid)
  done;
  let n_sites = div_base.(nf) in
  let coalesce = Coalesce.create prog in
  let b_ninstr = Array.make n_sites 0
  and b_term = Array.make n_sites Instr.Halt
  and b_first = Array.make n_sites 0 in
  for fid = 0 to nf - 1 do
    Array.iteri
      (fun b (blk : Program.block) ->
        let i = div_base.(fid) + b and n = Array.length blk.Program.instrs in
        b_ninstr.(i) <- n;
        b_term.(i) <- blk.Program.instrs.(n - 1);
        b_first.(i) <- coalesce.Coalesce.block_site.(fid).(b))
      (Program.func prog fid).Program.blocks
  done;
  let cap = 16 in
  {
    prog;
    ipdoms;
    config;
    coalesce;
    site_issues = Array.make n_sites 0;
    site_instrs = Array.make n_sites 0;
    issues = 0;
    thread_instrs = 0;
    lock_acquires = 0;
    serializations = 0;
    serialized_instrs = 0;
    barrier_syncs = 0;
    skipped_io = 0;
    skipped_spin = 0;
    skipped_excluded = 0;
    wt = Option.map Warp_trace.Builder.emitter warp_trace;
    tl_current = None;
    timelines = [];
    div_base;
    div_sites =
      Array.init n_sites (fun _ ->
          { sc_splits = 0; sc_lost = 0; sc_kind = Branch_site });
    blocks = { b_ninstr; b_term; b_first };
    flame = Hashtbl.create 64;
    call_stack = [];
    flame_cur = None;
    stack =
      {
        func = Array.make cap 0;
        pc = Array.make cap 0;
        reconv = Array.make cap 0;
        mask = Array.make cap Mask.empty;
        frame = Array.make cap false;
        bl_site = Array.make cap 0;
        bl_lost = Array.make cap 0;
        bl_up = Array.make cap 0;
        sp = 0;
      };
    scratch =
      {
        lane_ids = Array.make ws 0;
        lane_ptr = Array.make ws 0;
        lane_end = Array.make ws 0;
        n_lanes = 0;
        first_io = max_int;
        staged = false;
        traces = [||];
        pos = Array.make ws 0;
        ld_lane = Array.make ws 0;
        ld_addr = Array.make ws 0;
        ld_size = Array.make ws 0;
        n_ld = 0;
        st_lane = Array.make ws 0;
        st_addr = Array.make ws 0;
        st_size = Array.make ws 0;
        n_st = 0;
        grp_target = Array.make ws 0;
        grp_mask = Array.make ws Mask.empty;
        grp_count = Array.make ws 0;
        n_groups = 0;
        lane_group = Array.make ws 0;
        lk_lane = Array.make ws 0;
        lk_addr = Array.make ws 0;
      };
  }

(* Every [call_stack] change goes through here so the flamegraph cell for
   the current stack can be cached instead of hashed per block. *)
let set_call_stack t cs =
  t.call_stack <- cs;
  t.flame_cur <- None

(* The site of block [block] of [func], bounds-checked against the
   function: a trace naming a block past its function's end fails with
   [Invalid_argument], as an out-of-range [Program] block does, instead
   of charging a neighbour's site. *)
let[@inline] site_of t func block =
  let base = t.div_base.(func) in
  if block < 0 || block >= t.div_base.(func + 1) - base then
    invalid_arg "index out of bounds";
  base + block

(* Every divergence site in (fid, block) order. *)
let iter_div_sites t f =
  for fid = 0 to Array.length t.div_base - 2 do
    for i = t.div_base.(fid) to t.div_base.(fid + 1) - 1 do
      f ~fid ~block:(i - t.div_base.(fid)) t.div_sites.(i)
    done
  done

let flame_cell t key =
  match Hashtbl.find_opt t.flame key with
  | Some c -> c
  | None ->
      let c = { fc_issues = 0; fc_lost = 0 } in
      Hashtbl.add t.flame key c;
      c

let[@inline] exit_node t fid = t.div_base.(fid + 1) - t.div_base.(fid)

(* ------------------------------------------------------------------ *)
(* The SIMT stack                                                       *)

(* Double the first [n] (>= 1) slots of [a] into a new array. *)
let grow n a =
  let b = Array.make (2 * n) a.(0) in
  Array.blit a 0 b 0 n;
  b

let grow_stack st =
  let n = Array.length st.pc in
  st.func <- grow n st.func;
  st.pc <- grow n st.pc;
  st.reconv <- grow n st.reconv;
  st.mask <- grow n st.mask;
  st.frame <- grow n st.frame;
  st.bl_site <- grow n st.bl_site;
  st.bl_lost <- grow n st.bl_lost;
  st.bl_up <- grow n st.bl_up

(* Push an entry whose blame link is ([site], [lost], [up]).  The
   columns then still have a spare slot above the new top. *)
let[@inline] push st ~func ~pc ~reconv ~mask ~frame ~site ~lost ~up =
  let i = st.sp in
  st.func.(i) <- func;
  st.pc.(i) <- pc;
  st.reconv.(i) <- reconv;
  st.mask.(i) <- mask;
  st.frame.(i) <- frame;
  st.bl_site.(i) <- site;
  st.bl_lost.(i) <- lost;
  st.bl_up.(i) <- up;
  st.sp <- i + 1;
  if st.sp = Array.length st.pc then grow_stack st

(* Charge every divergence site on the blame chain starting at slot
   [link] its lost lanes for [n] issues. *)
let charge_blame t n link =
  let st = t.stack in
  let l = ref link in
  while !l >= 0 do
    let lost = st.bl_lost.(!l) in
    if lost > 0 then begin
      let c = t.div_sites.(st.bl_site.(!l)) in
      c.sc_lost <- c.sc_lost + (n * lost)
    end;
    l := st.bl_up.(!l)
  done

(* ------------------------------------------------------------------ *)
(* Lane staging                                                         *)

(* What a lane's trace has where the emulator expected something else
   ([event]'s end-of-trace [Skip] included).  [callee] names a
   call's target.  Error paths only: it reads the boxed event view. *)
let describe ?(callee = true) (ev : Event.t) =
  match ev with
  | Event.Block b -> Printf.sprintf "block f%d.b%d" b.func b.block
  | Event.Call f -> if callee then Printf.sprintf "call f%d" f else "call"
  | Event.Return -> "return"
  | Event.Lock_acq _ -> "lock"
  | Event.Lock_rel _ -> "unlock"
  | Event.Barrier _ -> "barrier"
  | Event.Skip _ -> "end of trace"

(* Stage lane [lane], whose read position is at a Block, at [k] of the
   lane list: its access range runs from the Block's offset word to the
   next event's, and its first access's ioff joins [first_io]. *)
let[@inline] stage_at s lane k =
  let tr = lane_trace s lane in
  let w = 3 * lane_pos s lane and ev = tr.Thread_trace.ev in
  let p = ev.(w + 2) and e = ev.(w + 5) in
  s.lane_ptr.(k) <- p;
  s.lane_end.(k) <- e;
  if p < e then begin
    let io = tr.Thread_trace.acc.(3 * p) in
    if io >= 0 && io < s.first_io then s.first_io <- io
  end

(* Stage the lanes of [mask] for block [block] of [func] and consume the
   block from each: one step per set bit, in ascending lane order.  A
   lane whose trace has anything else aborts the warp. *)
let stage_mask t ~func ~block (mask : Mask.t) =
  let s = t.scratch in
  s.first_io <- max_int;
  let m = ref (mask :> int) and k = ref 0 in
  while !m <> 0 do
    let b = !m land (- !m) in
    let lane = lane_of b in
    (match peek t lane with
    | Thread_trace.Block when arg t lane = func && block_id t lane = block ->
        s.lane_ids.(!k) <- lane;
        stage_at s lane !k;
        advance t lane
    | _ ->
        (* a mismatch aborts the warp *)
        s.n_lanes <- !k;
        errf "lane %d: expected block f%d.b%d, trace has %s" lane func block
          (describe (event t lane)));
    incr k;
    m := !m lxor b
  done;
  s.n_lanes <- !k

(* Stage the lanes already in [lane_ids] (see [staged]): they stand at
   the block, so only the ranges are read and the block consumed. *)
let restage t =
  let s = t.scratch in
  s.first_io <- max_int;
  for k = 0 to s.n_lanes - 1 do
    let lane = s.lane_ids.(k) in
    stage_at s lane k;
    advance t lane
  done

(* The lanes of [mask] into [lane_ids], without moving their reads. *)
let list_lanes s (mask : Mask.t) =
  let m = ref (mask :> int) and k = ref 0 in
  while !m <> 0 do
    let b = !m land (- !m) in
    s.lane_ids.(!k) <- lane_of b;
    incr k;
    m := !m lxor b
  done;
  s.n_lanes <- !k

(* ------------------------------------------------------------------ *)
(* Block execution: accounting, coalescing, warp-trace emission.       *)

(* Growable push into the load/store gather buffers. *)
let[@inline] push_mem s ~is_store lane addr size =
  if is_store then begin
    let n = s.n_st in
    if n = Array.length s.st_lane then begin
      s.st_lane <- grow n s.st_lane;
      s.st_addr <- grow n s.st_addr;
      s.st_size <- grow n s.st_size
    end;
    s.st_lane.(n) <- lane;
    s.st_addr.(n) <- addr;
    s.st_size.(n) <- size;
    s.n_st <- n + 1
  end
  else begin
    let n = s.n_ld in
    if n = Array.length s.ld_lane then begin
      s.ld_lane <- grow n s.ld_lane;
      s.ld_addr <- grow n s.ld_addr;
      s.ld_size <- grow n s.ld_size
    end;
    s.ld_lane.(n) <- lane;
    s.ld_addr.(n) <- addr;
    s.ld_size.(n) <- size;
    s.n_ld <- n + 1
  end

(* Emit instruction site [site] to the warp trace with the memory
   accesses gathered for it ([n_ld]/[n_st] lanes; none for an instruction
   without memory). *)
let emit_instr t wt ~mask ~site =
  let s = t.scratch in
  Warp_trace.Builder.emit wt ~site mask ~n_ld:s.n_ld s.ld_lane
    s.ld_addr ~n_st:s.n_st s.st_lane s.st_addr

(* Execute the block at divergence site [site] for the lanes staged in
   [t.scratch] ([lane_ids]/[lane_ptr]/[lane_end][0..n_lanes), ascending
   lane order, and [first_io]; see {!stage_mask}) and return its
   terminator.  All bookkeeping lives here so the lock-step path and the
   scalar serialized path stay consistent.  [blame] is the stack slot
   whose link starts the chain of divergence sites enclosing this
   execution; each is charged its marginal lost-lane cost per issue.
   Allocation-free apart from warp-trace column growth. *)
let count_block t ~site ~mask ~blame =
  let s = t.scratch in
  let n = t.blocks.b_ninstr.(site) in
  let active = s.n_lanes in
  t.issues <- t.issues + n;
  t.thread_instrs <- t.thread_instrs + (n * active);
  charge_blame t n blame;
  (let fc =
     match t.flame_cur with
     | Some fc -> fc
     | None ->
         let fc = flame_cell t t.call_stack in
         t.flame_cur <- Some fc;
         fc
   in
   fc.fc_issues <- fc.fc_issues + n;
   fc.fc_lost <- fc.fc_lost + (n * (t.config.warp_size - active)));
  (match t.tl_current with
  | Some v -> Vec.push v { Timeline.n_instr = n; active }
  | None -> ());
  t.site_issues.(site) <- t.site_issues.(site) + n;
  t.site_instrs.(site) <- t.site_instrs.(site) + (n * active);
  (* Visit only the instructions that access memory: a merge over the
     lanes' ioff-sorted access ranges.  [lane_ptr] is each lane's read
     pointer; a lane whose next access sits below the current ioff (or at
     or past [n]) is never read again, exactly as a full ioff-by-ioff
     scan would leave it.  [next] is the smallest ioff >= the current one
     at which some lane's next access sits, or [n]; staging took its
     first value. *)
  let next = ref (if s.first_io < n then s.first_io else n) in
  let site0 = t.blocks.b_first.(site) in
  let emit_wt = t.wt in
  let ioff = ref 0 in
  while !ioff < n do
    let m = !next in
    (* the warp trace carries every instruction, memory or not *)
    (match emit_wt with
    | None -> ()
    | Some wt ->
        s.n_ld <- 0;
        s.n_st <- 0;
        for j = !ioff to m - 1 do
          emit_instr t wt ~mask ~site:(site0 + j)
        done);
    if m < n then begin
      s.n_ld <- 0;
      s.n_st <- 0;
      next := n;
      for i = 0 to active - 1 do
        let lane = s.lane_ids.(i) in
        let tr = lane_trace s lane in
        let acc = tr.Thread_trace.acc and store = tr.Thread_trace.store in
        let len = s.lane_end.(i) in
        let p = ref s.lane_ptr.(i) in
        while !p < len && acc.(3 * !p) = m do
          let j = !p in
          let w = 3 * j in
          push_mem s
            ~is_store:
              (Char.code (Bytes.unsafe_get store (j lsr 3))
               land (1 lsl (j land 7))
              <> 0)
            lane acc.(w + 1) acc.(w + 2);
          p := j + 1
        done;
        s.lane_ptr.(i) <- !p;
        if !p < len then begin
          let io = acc.(3 * !p) in
          if io > m && io < !next then next := io
        end
      done;
      if s.n_ld > 0 then
        ignore
          (Coalesce.record_lanes t.coalesce ~is_store:false ~site:(site0 + m)
             ~n:s.n_ld s.ld_addr s.ld_size);
      if s.n_st > 0 then
        ignore
          (Coalesce.record_lanes t.coalesce ~is_store:true ~site:(site0 + m)
             ~n:s.n_st s.st_addr s.st_size);
      match emit_wt with None -> () | Some wt -> emit_instr t wt ~mask ~site:(site0 + m)
    end;
    ioff := m + 1
  done;
  t.blocks.b_term.(site)

(* ------------------------------------------------------------------ *)
(* Regrouping and lock serialization                                    *)

(* Reconvergence point for a divergence of the entry at slot [top] whose
   lanes stand at the [n_groups] targets in [grp_target] (ascending): the
   nearest common post-dominator of the targets (for plain branch
   divergence this is the diverging block's IPDOM; after lock
   serialization some lanes are already deep in the region, and the NCP
   places reconvergence after the critical section, per the paper's
   "unlock of one of the threads" rule).  The result is clamped to the
   entry's own reconvergence point when it would escape past it (possible
   because the DCFG merges paths from all calling contexts), and forced to
   the function exit in the ablation mode. *)
let reconv_for t top =
  let st = t.stack and s = t.scratch in
  let func = st.func.(top) and reconv = st.reconv.(top) in
  match t.config.reconv with
  | Function_exit_reconv -> exit_node t func
  | Ipdom_reconv ->
      let tbl = t.ipdoms.(func) in
      let r = ref s.grp_target.(0) in
      for j = 1 to s.n_groups - 1 do
        r := Ipdom.nearest_common_post_dominator tbl !r s.grp_target.(j)
      done;
      let r = !r in
      if r = reconv then r
      else if Ipdom.post_dominates tbl r reconv then reconv
      else r

(* After executing [block] (divergence site [site]), group the active
   lanes ([lane_ids]) of the entry at slot [top] by the next block they
   enter and update the stack accordingly.  [kind] records what caused any split: a plain divergent
   branch, or lock serialization scattering the lanes ([Sync_site], from
   {!handle_locks}). *)
let regroup ?(kind = Branch_site) t top block site =
  let s = t.scratch and st = t.stack in
  let func = st.func.(top) in
  s.n_groups <- 0;
  (* Group the lanes by their next block: a linear scan over the (few)
     distinct targets.  Each lane's group is kept so the group masks need
     building only when the warp splits. *)
  for k = 0 to s.n_lanes - 1 do
    let lane = s.lane_ids.(k) in
    let target =
      match peek t lane with
      | Thread_trace.Block when arg t lane = func -> block_id t lane
      | _ ->
          errf "lane %d: expected a block of f%d after f%d.b%d, got %s" lane
            func func block
            (describe ~callee:false (event t lane))
    in
    let j = ref 0 in
    while !j < s.n_groups && s.grp_target.(!j) <> target do
      incr j
    done;
    let j = !j in
    if j = s.n_groups then begin
      s.grp_target.(j) <- target;
      s.grp_count.(j) <- 0;
      s.n_groups <- j + 1
    end;
    s.grp_count.(j) <- s.grp_count.(j) + 1;
    s.lane_group.(k) <- j
  done;
  if s.n_groups = 1 then begin
    (* uniform: the lanes stay in [lane_ids], checked to stand at the
       target, so the next staging need not look again *)
    st.pc.(top) <- s.grp_target.(0);
    s.staged <- true
  end
  else begin
    for j = 0 to s.n_groups - 1 do
      s.grp_mask.(j) <- Mask.empty
    done;
    for k = 0 to s.n_lanes - 1 do
      let j = s.lane_group.(k) in
      s.grp_mask.(j) <- Mask.add s.grp_mask.(j) s.lane_ids.(k)
    done;
    let parent_lanes = s.n_lanes in
    let cell = t.div_sites.(site) in
    cell.sc_splits <- cell.sc_splits + 1;
    if kind = Sync_site then cell.sc_kind <- Sync_site;
    (* Sort the groups by target (insertion sort over a handful of
       entries): the NCP fold is order-insensitive, and the children are
       pushed in ascending-target order. *)
    for i = 1 to s.n_groups - 1 do
      let tg = s.grp_target.(i)
      and mk = s.grp_mask.(i)
      and ct = s.grp_count.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && s.grp_target.(!j) > tg do
        s.grp_target.(!j + 1) <- s.grp_target.(!j);
        s.grp_mask.(!j + 1) <- s.grp_mask.(!j);
        s.grp_count.(!j + 1) <- s.grp_count.(!j);
        decr j
      done;
      s.grp_target.(!j + 1) <- tg;
      s.grp_mask.(!j + 1) <- mk;
      s.grp_count.(!j + 1) <- ct
    done;
    let r = reconv_for t top in
    st.pc.(top) <- r;
    (* Push one child per distinct destination (other than the
       reconvergence point itself), deterministically ordered.  Each child
       links this site into the blame chain: while it executes, the lanes
       parked on the sibling paths are this split's fault. *)
    for j = 0 to s.n_groups - 1 do
      let target = s.grp_target.(j) in
      if target <> r then
        push st ~func ~pc:target ~reconv:r ~mask:s.grp_mask.(j) ~frame:false
          ~site ~lost:(parent_lanes - s.grp_count.(j)) ~up:top
    done
  end

(* Scalar replay of one lane's critical section: consume events until the
   matching unlock of [lock_addr], charging every block as a one-lane
   issue.  [blame] is the slot of the link naming the serialization site
   (and, through it, any enclosing divergence) so the lost-lane slots
   land on the lock-acquire block; the call stack follows the lane's
   call/return events so flamegraph frames stay accurate inside the
   critical section, and is restored afterwards (an aborted warp leaves
   it to the next warp's reset).  A trace that ends while still holding
   the lock is a deadlock verdict (the lock is never released, so the
   other contenders would wait forever); the fuel watchdog bounds the
   walk on corrupt input. *)
let scalar_critical_section ~(fuel : fuel) ~warp_id ~blame t lane lock_addr =
  let s = t.scratch in
  let before = t.thread_instrs in
  let saved_stack = t.call_stack in
  let fin = ref false in
  while not !fin do
    burn fuel ~warp_id;
    match peek t lane with
    | Thread_trace.Block ->
        let func = arg t lane and block = block_id t lane in
        s.n_lanes <- 1;
        s.lane_ids.(0) <- lane;
        s.first_io <- max_int;
        stage_at s lane 0;
        advance t lane;
        ignore
          (count_block t ~site:(site_of t func block) ~mask:(Mask.singleton lane)
             ~blame)
    | Thread_trace.Call ->
        let f = arg t lane in
        advance t lane;
        set_call_stack t (f :: t.call_stack)
    | Thread_trace.Return -> (
        advance t lane;
        match t.call_stack with
        | _ :: (_ :: _ as rest) -> set_call_stack t rest
        | _ -> ())
    | Thread_trace.Lock_acq ->
        advance t lane;
        t.lock_acquires <- t.lock_acquires + 1
    | Thread_trace.Barrier -> advance t lane
    | Thread_trace.Lock_rel ->
        let a = arg t lane in
        advance t lane;
        if a = lock_addr then fin := true
    | Thread_trace.Skip ->
        Tf_error.fail ~thread:(lane_trace s lane).Thread_trace.tid
          Tf_error.Deadlock
          "lane %d: trace ended inside critical section of lock 0x%x (lock \
           never released)"
          lane lock_addr
  done;
  set_call_stack t saved_stack;
  t.serialized_instrs <- t.serialized_instrs + (t.thread_instrs - before)

(* Serialize the contenders [lk_*][i..j) of the lock-acquire block at
   [site] (entry [top]) one lane at a time.  The idle contenders are the
   lock site's fault: the scalar replay charges a blame link
   (site, contenders - 1) in the stack's spare slot above the top,
   chained to the entry's own. *)
let serialize_run ~fuel ~warp_id t top site i j =
  let s = t.scratch and st = t.stack in
  t.serializations <- t.serializations + 1;
  (* a lock-acquire block is only ever a sync site *)
  t.div_sites.(site).sc_kind <- Sync_site;
  let link = st.sp in
  st.bl_site.(link) <- site;
  st.bl_lost.(link) <- j - i - 1;
  st.bl_up.(link) <- top;
  for k = i to j - 1 do
    scalar_critical_section ~fuel ~warp_id ~blame:link t s.lk_lane.(k)
      s.lk_addr.(k)
  done

(* Handle the lock-acquire terminator of [block] (site [site]): consume
   the lock events, serialize same-lock contenders, then regroup. *)
let handle_locks ~fuel ~warp_id t top block site =
  let s = t.scratch and st = t.stack in
  let func = st.func.(top) and n = s.n_lanes in
  for k = 0 to n - 1 do
    let lane = s.lane_ids.(k) in
    match peek t lane with
    | Thread_trace.Lock_acq ->
        s.lk_lane.(k) <- lane;
        s.lk_addr.(k) <- arg t lane;
        advance t lane;
        t.lock_acquires <- t.lock_acquires + 1
    | _ -> errf "lane %d: expected lock acquire after f%d.b%d" lane func block
  done;
  let serialized =
    match t.config.sync with
    | Ignore_sync -> false
    | Serialize_all ->
        (* pessimistic policy: any lock acquire serializes the whole warp's
           critical sections, regardless of the addresses (one of the
           alternative designs the paper defers to future work) *)
        if n > 1 then serialize_run ~fuel ~warp_id t top site 0 n;
        n > 1
    | Serialize ->
        (* Group the contenders by address: a stable insertion sort keeps
           each address's lanes ascending, and the conflicting groups (two
           or more lanes) serialize in ascending address order. *)
        for i = 1 to n - 1 do
          let a = s.lk_addr.(i) and l = s.lk_lane.(i) in
          let j = ref (i - 1) in
          while !j >= 0 && s.lk_addr.(!j) > a do
            s.lk_addr.(!j + 1) <- s.lk_addr.(!j);
            s.lk_lane.(!j + 1) <- s.lk_lane.(!j);
            decr j
          done;
          s.lk_addr.(!j + 1) <- a;
          s.lk_lane.(!j + 1) <- l
        done;
        let any = ref false and i = ref 0 in
        while !i < n do
          let j = ref (!i + 1) in
          while !j < n && s.lk_addr.(!j) = s.lk_addr.(!i) do
            incr j
          done;
          if !j - !i > 1 then begin
            serialize_run ~fuel ~warp_id t top site !i !j;
            any := true
          end;
          i := !j
        done;
        !any
  in
  (* the scalar replay staged single lanes over [lane_ids] *)
  if serialized then list_lanes s st.mask.(top);
  regroup ~kind:Sync_site t top block site

(* ------------------------------------------------------------------ *)
(* Warp main loop                                                       *)

(* The event that follows a block's call, return, barrier or unlock
   terminator in every lane's trace. *)
type marker = M_call | M_ret | M_barrier | M_unlock

(* Consume [marker] from every lane of [lane_ids], which just executed
   [block] of [func].  A missing barrier arrival would block the whole
   team forever on real hardware — a typed deadlock verdict. *)
let consume_markers t ~func block marker =
  let s = t.scratch in
  for k = 0 to s.n_lanes - 1 do
    let lane = s.lane_ids.(k) in
    match (marker, next t lane) with
    | M_call, _
    | M_ret, Thread_trace.Return
    | M_barrier, Thread_trace.Barrier
    | M_unlock, Thread_trace.Lock_rel ->
        ()
    | M_ret, _ -> errf "lane %d: expected return after f%d.b%d" lane func block
    | M_barrier, _ ->
        Tf_error.fail ~thread:(lane_trace s lane).Thread_trace.tid
          Tf_error.Deadlock
          "lane %d: no barrier arrival after f%d.b%d (barrier never \
           satisfied)"
          lane func block
    | M_unlock, _ -> errf "lane %d: expected unlock after f%d.b%d" lane func block
  done

(* One warp's replay; {!run_warp} adds its warp-trace emission.  All
   per-warp state (stack, staged lanes, call stack, timeline) is reset
   here, so a warp that aborted mid-replay leaves nothing behind. *)
let replay_warp ?fuel t ~warp_id (traces : Thread_trace.t array) =
  let fuel : fuel = Option.map ref fuel in
  let s = t.scratch and st = t.stack in
  let n_lanes = Array.length traces in
  if n_lanes > Array.length s.pos then
    invalid_arg "Emulator.run_warp: more lanes than the warp size";
  s.traces <- traces;
  Array.fill s.pos 0 n_lanes 0;
  s.staged <- false;
  s.n_lanes <- 0;
  st.sp <- 0;
  if t.config.record_timeline then
    t.tl_current <- Some (Vec.create ~capacity:256 { Timeline.n_instr = 0; active = 0 });
  if n_lanes = 0 then ()
  else begin
    let worker =
      match peek t 0 with
      | Thread_trace.Block ->
          if block_id t 0 <> 0 then
            errf "warp %d: trace does not start at entry" warp_id;
          arg t 0
      | _ -> errf "warp %d: empty trace" warp_id
    in
    push st ~func:worker ~pc:0 ~reconv:(exit_node t worker)
      ~mask:(Mask.full n_lanes) ~frame:true ~site:0 ~lost:0 ~up:(-1);
    set_call_stack t [ worker ];
    while st.sp > 0 do
      burn fuel ~warp_id;
      let top = st.sp - 1 in
      let func = st.func.(top) and block = st.pc.(top) in
      if block = st.reconv.(top) then begin
        if st.frame.(top) then
          set_call_stack t
            (match t.call_stack with _ :: rest -> rest | [] -> []);
        st.sp <- top;
        s.staged <- false
      end
      else if block = exit_node t func then
        errf "warp %d: entry reached f%d's exit without popping" warp_id func
      else begin
        (* Consume this block from every active lane, staging the lanes
           and their access ranges in the scratch buffers (ascending). *)
        if s.staged then restage t
        else stage_mask t ~func ~block st.mask.(top);
        s.staged <- false;
        let site = site_of t func block in
        match count_block t ~site ~mask:st.mask.(top) ~blame:top with
        | Instr.Call callee -> (
            (* an excluded callee leaves no Call event: the lanes jump
               straight to the continuation block (paper §III's selective
               tracing) *)
            match peek t s.lane_ids.(0) with
            | Thread_trace.Call ->
                consume_markers t ~func block M_call;
                st.pc.(top) <- block + 1;
                set_call_stack t (callee :: t.call_stack);
                push st ~func:callee ~pc:0 ~reconv:(exit_node t callee)
                  ~mask:st.mask.(top) ~frame:true ~site:st.bl_site.(top)
                  ~lost:st.bl_lost.(top) ~up:st.bl_up.(top)
            | _ -> regroup t top block site)
        | Instr.Ret ->
            consume_markers t ~func block M_ret;
            st.pc.(top) <- exit_node t func
        | Instr.Halt -> st.pc.(top) <- exit_node t func
        | Instr.Lock_acquire _ -> handle_locks ~fuel ~warp_id t top block site
        | Instr.Barrier _ ->
            (* all lanes arrive together (same block): within the warp a
               team barrier is free; count it and continue in lockstep.  A
               lane without the arrival would block the whole team forever
               on real hardware — a typed deadlock verdict. *)
            consume_markers t ~func block M_barrier;
            t.barrier_syncs <- t.barrier_syncs + 1;
            regroup t top block site
        | Instr.Lock_release _ ->
            consume_markers t ~func block M_unlock;
            regroup t top block site
        | Instr.Jcc _ | Instr.Jmp _ | Instr.Io _ | Instr.Mov _ | Instr.Cmov _
        | Instr.Lea _ | Instr.Binop _ | Instr.Unop _ | Instr.Cmp _
        | Instr.Atomic_rmw _ ->
            regroup t top block site
      end
    done;
    for lane = 0 to n_lanes - 1 do
      if not (at_end t lane) then
        errf "warp %d lane %d: %d unconsumed trace events" warp_id lane
          (Array.length traces.(lane).Thread_trace.events - s.pos.(lane))
    done;
    match t.tl_current with
    | Some v ->
        t.timelines <-
          { Timeline.warp_id; warp_size = t.config.warp_size; samples = Vec.to_array v }
          :: t.timelines;
        t.tl_current <- None
    | None -> ()
  end

(** Replay one warp.  [traces.(lane)] is lane [lane]'s trace, read from
    its start; all lanes must start at the same worker function.  [fuel]
    (when given) bounds the total number of stack steps + serialized
    events, raising a typed [Tf_error.Timeout] when exhausted — the replay
    watchdog of the checked pipeline. *)
let run_warp ?fuel t ~warp_id traces =
  match t.wt with
  | None -> replay_warp ?fuel t ~warp_id traces
  | Some wt ->
      (* an aborted warp keeps the micro-ops emitted before the abort *)
      Warp_trace.Builder.start wt ~warp:warp_id;
      (match replay_warp ?fuel t ~warp_id traces with
      | () -> Warp_trace.Builder.seal wt
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Warp_trace.Builder.seal wt;
          Printexc.raise_with_backtrace e bt)

(* ------------------------------------------------------------------ *)
(* Shard reduction                                                      *)

(** Fold [src]'s accumulated metrics into [dst] — the reduction step of
    the domain-parallel replay (see Par_replay): each domain replays a
    disjoint warp slice into a private emulator, then the shards merge in
    worker order.  Every aggregate is a sum (or, for [sc_kind], a
    site-determined constant), so the merged emulator carries exactly the
    totals a sequential replay of all the warps would have produced.
    Transient per-warp state (call stack, stack, scratch buffers,
    warp-trace handle) is left untouched. *)
let merge_into ~dst src =
  dst.issues <- dst.issues + src.issues;
  dst.thread_instrs <- dst.thread_instrs + src.thread_instrs;
  dst.lock_acquires <- dst.lock_acquires + src.lock_acquires;
  dst.serializations <- dst.serializations + src.serializations;
  dst.serialized_instrs <- dst.serialized_instrs + src.serialized_instrs;
  dst.barrier_syncs <- dst.barrier_syncs + src.barrier_syncs;
  dst.skipped_io <- dst.skipped_io + src.skipped_io;
  dst.skipped_spin <- dst.skipped_spin + src.skipped_spin;
  dst.skipped_excluded <- dst.skipped_excluded + src.skipped_excluded;
  let add_into d s = Array.iteri (fun i v -> d.(i) <- d.(i) + v) s in
  add_into dst.site_issues src.site_issues;
  add_into dst.site_instrs src.site_instrs;
  Coalesce.merge_into ~dst:dst.coalesce src.coalesce;
  Array.iteri
    (fun i (c : div_site_cell) ->
      let d = dst.div_sites.(i) in
      d.sc_splits <- d.sc_splits + c.sc_splits;
      d.sc_lost <- d.sc_lost + c.sc_lost;
      (* a site's kind is determined by its terminator (lock blocks are
         always [Sync_site], branch blocks always [Branch_site]), so
         either side wins consistently *)
      if c.sc_kind = Sync_site then d.sc_kind <- Sync_site)
    src.div_sites;
  Hashtbl.iter
    (fun key (c : flame_cell) ->
      let d = flame_cell dst key in
      d.fc_issues <- d.fc_issues + c.fc_issues;
      d.fc_lost <- d.fc_lost + c.fc_lost)
    src.flame;
  (* order is irrelevant here — consumers sort by warp id (unique), so
     the constant-space prepend keeps the reduction allocation-light *)
  dst.timelines <- List.rev_append src.timelines dst.timelines
