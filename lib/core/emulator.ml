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
    emits the cracked warp-level RISC trace for the cycle simulator. *)

module Program = Threadfuser_prog.Program
module Event = Threadfuser_trace.Event
module Thread_trace = Threadfuser_trace.Thread_trace
module Ipdom = Threadfuser_cfg.Ipdom
module Tf_error = Threadfuser_util.Tf_error
module Vec = Threadfuser_util.Vec
open Threadfuser_isa

(* Cursor reads of the replay loop, kept in this module so they inline
   (dune's default build compiles libraries [-opaque], so calls into
   another module are never inlined).  [peek] returns the kind of the
   next non-Skip event, or [Skip] at the end of the trace; it calls
   {!Cursor.absorb_run} only when it must absorb a Skip.  [arg] and
   [block_id] read the peeked event's words of the stride-3 [ev] column
   (see {!Thread_trace.t}). *)
let[@inline] peek (c : Cursor.t) =
  let kinds = c.trace.Thread_trace.events in
  if c.pos < Array.length kinds then
    match Array.unsafe_get kinds c.pos with
    | Thread_trace.Skip ->
        Cursor.absorb_run c;
        if c.pos < Array.length kinds then Array.unsafe_get kinds c.pos
        else Thread_trace.Skip
    | k -> k
  else Thread_trace.Skip

let[@inline] advance (c : Cursor.t) =
  if c.pos < Array.length c.trace.Thread_trace.events then c.pos <- c.pos + 1

let[@inline] next c =
  let k = peek c in
  advance c;
  k

let[@inline] arg (c : Cursor.t) = c.trace.Thread_trace.ev.(3 * c.pos)

let[@inline] block_id (c : Cursor.t) =
  c.trace.Thread_trace.ev.((3 * c.pos) + 1)

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

(* A blame chain entry: (divergence-site index, lanes lost per lock-step
   issue).  Site [div_base.(fid) + block] is block [block] of [fid]. *)
type blame = (int * int) list

(* Folded-stack accumulation for the replay flamegraph: the warp's call
   stack (leaf first) -> lock-step issues and lost-lane issue slots. *)
type flame_cell = { mutable fc_issues : int; mutable fc_lost : int }

(* Reusable hot-path buffers (the replay allocation diet): one warp
   replays at a time per emulator, so [count_block] and [regroup] borrow
   these instead of allocating per block / per instruction.  The [ld_*] /
   [st_*] triples gather the current instruction's memory accesses
   (growable: a lane may access several addresses per instruction); the
   [grp_*] pair collects the distinct branch targets of a regroup. *)
type scratch = {
  lane_ids : int array; (* active lanes of the current block, ascending *)
  lane_ptr : int array; (* per active lane: next access in its trace *)
  lane_end : int array; (* per active lane: end of the block's accesses *)
  mutable cursors : Cursor.t array; (* the replaying warp's lanes *)
  lane_target : int array; (* per lane: next block, during a regroup *)
  mutable n_lanes : int;
  mutable ld_lane : int array;
  mutable ld_addr : int array;
  mutable ld_size : int array;
  mutable n_ld : int;
  mutable st_lane : int array;
  mutable st_addr : int array;
  mutable st_size : int array;
  mutable n_st : int;
  grp_target : int array; (* distinct regroup targets, first-seen order *)
  mutable grp_mask : Mask.t array;
  mutable n_groups : int;
}

type t = {
  prog : Program.t;
  ipdoms : Ipdom.t array; (* per function *)
  config : config;
  coalesce : Coalesce.t;
  func_issues : int array;
  func_instrs : int array;
  block_issues : int array array; (* per function, per block *)
  block_instrs : int array array;
  mutable issues : int;
  mutable thread_instrs : int;
  mutable lock_acquires : int;
  mutable serializations : int;
  mutable serialized_instrs : int;
  mutable barrier_syncs : int; (* warp-level barrier crossings *)
  wt : Warp_trace.Builder.emitter option;
  mutable tl_current : Timeline.sample Vec.t option; (* active warp's samples *)
  mutable timelines : Timeline.t list; (* finished warps, reversed *)
  div_base : int array; (* per function: site index of its block 0 *)
  div_sites : div_site_cell array; (* one per static block *)
  flame : (int list, flame_cell) Hashtbl.t; (* call stack (leaf first) *)
  mutable call_stack : int list; (* replaying warp's frames, leaf first *)
  mutable flame_cur : flame_cell option; (* cached cell for [call_stack] *)
  scratch : scratch;
}

let create ?(warp_trace : Warp_trace.Builder.t option) prog ipdoms config =
  let ws = config.warp_size in
  let nf = Program.func_count prog in
  let div_base = Array.make (nf + 1) 0 in
  for fid = 0 to nf - 1 do
    div_base.(fid + 1) <-
      div_base.(fid) + Program.block_count (Program.func prog fid)
  done;
  {
    prog;
    ipdoms;
    config;
    coalesce = Coalesce.create prog;
    func_issues = Array.make (Program.func_count prog) 0;
    func_instrs = Array.make (Program.func_count prog) 0;
    block_issues =
      Array.init (Program.func_count prog) (fun fid ->
          Array.make (Program.block_count (Program.func prog fid)) 0);
    block_instrs =
      Array.init (Program.func_count prog) (fun fid ->
          Array.make (Program.block_count (Program.func prog fid)) 0);
    issues = 0;
    thread_instrs = 0;
    lock_acquires = 0;
    serializations = 0;
    serialized_instrs = 0;
    barrier_syncs = 0;
    wt = Option.map Warp_trace.Builder.emitter warp_trace;
    tl_current = None;
    timelines = [];
    div_base;
    div_sites =
      Array.init div_base.(nf) (fun _ ->
          { sc_splits = 0; sc_lost = 0; sc_kind = Branch_site });
    flame = Hashtbl.create 64;
    call_stack = [];
    flame_cur = None;
    scratch =
      {
        lane_ids = Array.make ws 0;
        lane_ptr = Array.make ws 0;
        lane_end = Array.make ws 0;
        cursors = [||];
        lane_target = Array.make ws 0;
        n_lanes = 0;
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
        n_groups = 0;
      };
  }

(* Every [call_stack] change goes through here so the flamegraph cell for
   the current stack can be cached instead of hashed per block. *)
let set_call_stack t cs =
  t.call_stack <- cs;
  t.flame_cur <- None

let div_site t ~func ~block = t.div_base.(func) + block

(* Every divergence site in (fid, block) order. *)
let iter_div_sites t f =
  for fid = 0 to Array.length t.div_base - 2 do
    for i = t.div_base.(fid) to t.div_base.(fid + 1) - 1 do
      f ~fid ~block:(i - t.div_base.(fid)) t.div_sites.(i)
    done
  done

(* Charge every enclosing divergence site its lost lanes for [n] issues. *)
let rec charge_blame sites n (blame : blame) =
  match blame with
  | [] -> ()
  | (site, lost) :: rest ->
      if lost > 0 then begin
        let c = sites.(site) in
        c.sc_lost <- c.sc_lost + (n * lost)
      end;
      charge_blame sites n rest

let flame_cell t key =
  match Hashtbl.find_opt t.flame key with
  | Some c -> c
  | None ->
      let c = { fc_issues = 0; fc_lost = 0 } in
      Hashtbl.add t.flame key c;
      c

let exit_node t fid = t.div_base.(fid + 1) - t.div_base.(fid)

(* ------------------------------------------------------------------ *)
(* Block execution: accounting, coalescing, warp-trace emission.       *)

let grow n a =
  let b = Array.make (2 * n) 0 in
  Array.blit a 0 b 0 n;
  b

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

(* Stage lane [lane], whose cursor [c] is at a Block, as the next active
   lane of the block about to execute: its access range runs from the
   Block's offset word to the next event's. *)
let[@inline] stage s (c : Cursor.t) lane =
  let k = s.n_lanes and ev = c.Cursor.trace.Thread_trace.ev in
  let w = 3 * c.Cursor.pos in
  s.lane_ids.(k) <- lane;
  s.lane_ptr.(k) <- ev.(w + 2);
  s.lane_end.(k) <- ev.(w + 5);
  s.n_lanes <- k + 1

(* Execute block [block] of [func] for the active lanes staged in
   [t.scratch] ([lane_ids]/[lane_ptr]/[lane_end][0..n_lanes), ascending
   lane order; see {!stage}).
   All bookkeeping lives here so the lock-step path and the scalar
   serialized path stay consistent.  [blame] is the chain of divergence
   sites enclosing this execution; each is charged its marginal lost-lane
   cost per issue.  Allocation-free apart from warp-trace column growth. *)
let count_block t ~func ~block ~mask ~(blame : blame) =
  let s = t.scratch in
  let instrs = (Program.func t.prog func).Program.blocks.(block).Program.instrs in
  let n = Array.length instrs in
  let active = s.n_lanes in
  t.issues <- t.issues + n;
  t.thread_instrs <- t.thread_instrs + (n * active);
  charge_blame t.div_sites n blame;
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
  t.func_issues.(func) <- t.func_issues.(func) + n;
  t.func_instrs.(func) <- t.func_instrs.(func) + (n * active);
  t.block_issues.(func).(block) <- t.block_issues.(func).(block) + n;
  t.block_instrs.(func).(block) <- t.block_instrs.(func).(block) + (n * active);
  (* Visit only the instructions that access memory: a merge over the
     lanes' ioff-sorted access ranges.  [lane_ptr] is each lane's read
     pointer; a lane whose next access sits below the current ioff (or at
     or past [n]) is never read again, exactly as a full ioff-by-ioff
     scan would leave it.  [next] is the smallest ioff >= the current one
     at which some lane's next access sits, or [n]. *)
  let next = ref n in
  for i = 0 to active - 1 do
    let p = s.lane_ptr.(i) in
    if p < s.lane_end.(i) then begin
      let io = s.cursors.(s.lane_ids.(i)).Cursor.trace.Thread_trace.acc.(3 * p) in
      if io >= 0 && io < !next then next := io
    end
  done;
  let site0 = t.coalesce.Coalesce.block_site.(func).(block) in
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
        let tr = s.cursors.(lane).Cursor.trace in
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
  instrs.(n - 1)

(* ------------------------------------------------------------------ *)
(* The SIMT stack                                                       *)

type entry = {
  e_func : int;
  mutable pc : int; (* node: block id or the function's exit node *)
  e_reconv : int;
  mutable e_mask : Mask.t;
  e_blame : blame; (* divergence sites enclosing this entry's region *)
  e_frame : bool; (* a function frame (its pop leaves the function) *)
}

(* What a lane's trace has where the emulator expected something else
   ([Cursor.event]'s end-of-trace [Skip] included).  [callee] names a
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

(* Reconvergence point for a divergence whose lanes stand at [targets]
   inside [e]: the nearest common post-dominator of the targets (for plain
   branch divergence this is the diverging block's IPDOM; after lock
   serialization some lanes are already deep in the region, and the NCP
   places reconvergence after the critical section, per the paper's
   "unlock of one of the threads" rule).  The result is clamped to the
   entry's own reconvergence point when it would escape past it (possible
   because the DCFG merges paths from all calling contexts), and forced to
   the function exit in the ablation mode. *)
let reconv_for t (e : entry) targets =
  match t.config.reconv with
  | Function_exit_reconv -> exit_node t e.e_func
  | Ipdom_reconv -> (
      let tbl = t.ipdoms.(e.e_func) in
      match targets with
      | [] -> e.e_reconv
      | first :: rest ->
          let r =
            List.fold_left (Ipdom.nearest_common_post_dominator tbl) first rest
          in
          if r = e.e_reconv then r
          else if Ipdom.post_dominates tbl r e.e_reconv then e.e_reconv
          else r)

(* Scalar replay of one lane's critical section: consume events until the
   matching unlock of [lock_addr], charging every block as a one-lane
   issue.  [blame] carries the serialization site (and any enclosing
   divergence) so the lost-lane slots land on the lock-acquire block; the
   call stack follows the lane's call/return events so flamegraph frames
   stay accurate inside the critical section.  A trace that ends while
   still holding the lock is a deadlock verdict (the lock is never
   released, so the other contenders would wait forever); the fuel
   watchdog bounds the walk on corrupt input. *)
let scalar_critical_section ?(fuel : fuel = None) ~warp_id ~(blame : blame) t
    cursors lane lock_addr =
  let c = cursors.(lane) in
  let before = t.thread_instrs in
  let saved_stack = t.call_stack in
  let s = t.scratch in
  let rec go () =
    burn fuel ~warp_id;
    match peek c with
    | Thread_trace.Block ->
        let func = arg c and block = block_id c in
        s.n_lanes <- 0;
        stage s c lane;
        advance c;
        ignore (count_block t ~func ~block ~mask:(Mask.singleton lane) ~blame);
        go ()
    | Thread_trace.Call ->
        let f = arg c in
        advance c;
        set_call_stack t (f :: t.call_stack);
        go ()
    | Thread_trace.Return ->
        advance c;
        (match t.call_stack with
        | _ :: (_ :: _ as rest) -> set_call_stack t rest
        | _ -> ());
        go ()
    | Thread_trace.Lock_acq ->
        advance c;
        t.lock_acquires <- t.lock_acquires + 1;
        go ()
    | Thread_trace.Barrier ->
        advance c;
        go ()
    | Thread_trace.Lock_rel ->
        let a = arg c in
        advance c;
        if a = lock_addr then () else go ()
    | Thread_trace.Skip ->
        Tf_error.fail ~thread:c.Cursor.tid Tf_error.Deadlock
          "lane %d: trace ended inside critical section of lock 0x%x (lock \
           never released)"
          lane lock_addr
  in
  Fun.protect ~finally:(fun () -> set_call_stack t saved_stack) go;
  t.serialized_instrs <- t.serialized_instrs + (t.thread_instrs - before)

(* After executing [block], group the active lanes by the next block they
   enter and update the stack accordingly.  [kind] records what caused any
   split: a plain divergent branch, or lock serialization scattering the
   lanes ([Sync_site], from {!handle_locks}). *)
let regroup ?(kind = Branch_site) t stack (e : entry) block cursors =
  let s = t.scratch in
  s.n_groups <- 0;
  (* Group the active lanes by their next block: linear scan over the
     (few) distinct targets, no Hashtbl, no lane list.  Each lane's target
     is kept so the group masks need building only when the warp
     splits. *)
  let parent_lanes = ref 0 in
  let m = ref (e.e_mask :> int) and lane = ref 0 in
  while !m <> 0 do
    if !m land 1 <> 0 then begin
      let c = cursors.(!lane) in
      let target =
        match peek c with
        | Thread_trace.Block when arg c = e.e_func -> block_id c
        | _ ->
            errf "lane %d: expected a block of f%d after f%d.b%d, got %s" !lane
              e.e_func e.e_func block
              (describe ~callee:false (Cursor.event c))
      in
      s.lane_target.(!lane) <- target;
      let j = ref 0 in
      while !j < s.n_groups && s.grp_target.(!j) <> target do
        incr j
      done;
      if !j = s.n_groups then begin
        s.grp_target.(s.n_groups) <- target;
        s.n_groups <- s.n_groups + 1
      end;
      incr parent_lanes
    end;
    m := !m lsr 1;
    incr lane
  done;
  let parent_lanes = !parent_lanes in
  if s.n_groups = 1 then e.pc <- s.grp_target.(0)
  else begin
    for j = 0 to s.n_groups - 1 do
      s.grp_mask.(j) <- Mask.empty
    done;
    let m = ref (e.e_mask :> int) and lane = ref 0 in
    while !m <> 0 do
      if !m land 1 <> 0 then begin
        let j = ref 0 in
        while s.grp_target.(!j) <> s.lane_target.(!lane) do
          incr j
        done;
        s.grp_mask.(!j) <- Mask.add s.grp_mask.(!j) !lane
      end;
      m := !m lsr 1;
      incr lane
    done;
    let site = div_site t ~func:e.e_func ~block in
    let cell = t.div_sites.(site) in
    cell.sc_splits <- cell.sc_splits + 1;
    if kind = Sync_site then cell.sc_kind <- Sync_site;
    (* Sort the groups by target (insertion sort over a handful of
       entries): the NCP fold is order-insensitive, and the children push
       below gets the same ascending-target order the old
       [List.sort compare] produced. *)
    for i = 1 to s.n_groups - 1 do
      let tg = s.grp_target.(i) and mk = s.grp_mask.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && s.grp_target.(!j) > tg do
        s.grp_target.(!j + 1) <- s.grp_target.(!j);
        s.grp_mask.(!j + 1) <- s.grp_mask.(!j);
        decr j
      done;
      s.grp_target.(!j + 1) <- tg;
      s.grp_mask.(!j + 1) <- mk
    done;
    let distinct = ref [] in
    for j = s.n_groups - 1 downto 0 do
      distinct := s.grp_target.(j) :: !distinct
    done;
    let r = reconv_for t e !distinct in
    e.pc <- r;
    (* Push one child per distinct destination (other than the
       reconvergence point itself), deterministically ordered.  Each child
       extends the blame chain with this site: while it executes, the
       lanes parked on the sibling paths are this split's fault. *)
    for j = 0 to s.n_groups - 1 do
      let target = s.grp_target.(j) and mask = s.grp_mask.(j) in
      if target <> r then
        Vec.push stack
          {
            e_func = e.e_func;
            pc = target;
            e_reconv = r;
            e_mask = mask;
            e_blame = (site, parent_lanes - Mask.count mask) :: e.e_blame;
            e_frame = false;
          }
    done
  end

(* Handle the lock-acquire terminator: consume the lock events, serialize
   same-lock contenders, then regroup. *)
let handle_locks ?(fuel : fuel = None) ~warp_id t stack (e : entry) block
    cursors =
  let lanes = Mask.to_list e.e_mask in
  let addrs =
    List.map
      (fun lane ->
        let c = cursors.(lane) in
        match peek c with
        | Thread_trace.Lock_acq ->
            let a = arg c in
            advance c;
            t.lock_acquires <- t.lock_acquires + 1;
            (lane, a)
        | _ -> errf "lane %d: expected lock acquire after f%d.b%d" lane e.e_func block)
      lanes
  in
  (* Serialized critical sections run one lane at a time: the idle
     contenders are the lock site's fault, so the scalar replay extends
     the blame chain with ((func, block), contenders - 1). *)
  let site = div_site t ~func:e.e_func ~block in
  let serial_blame ~contenders : blame =
    (* a lock-acquire block is only ever a sync site *)
    t.div_sites.(site).sc_kind <- Sync_site;
    (site, contenders - 1) :: e.e_blame
  in
  (match t.config.sync with
  | Ignore_sync -> ()
  | Serialize_all ->
      (* pessimistic policy: any lock acquire serializes the whole warp's
         critical sections, regardless of the addresses (one of the
         alternative designs the paper defers to future work) *)
      if List.length addrs > 1 then begin
        t.serializations <- t.serializations + 1;
        let blame = serial_blame ~contenders:(List.length addrs) in
        List.iter
          (fun (lane, a) ->
            scalar_critical_section ~fuel ~warp_id ~blame t cursors lane a)
          addrs
      end
  | Serialize ->
      let by_addr = Hashtbl.create 4 in
      List.iter
        (fun (lane, a) ->
          let l = try Hashtbl.find by_addr a with Not_found -> [] in
          Hashtbl.replace by_addr a (lane :: l))
        addrs;
      let conflicting =
        Hashtbl.fold
          (fun a lanes acc ->
            if List.length lanes > 1 then (a, List.rev lanes) :: acc else acc)
          by_addr []
        |> List.sort compare
      in
      List.iter
        (fun (a, lanes) ->
          t.serializations <- t.serializations + 1;
          let blame = serial_blame ~contenders:(List.length lanes) in
          List.iter
            (fun lane ->
              scalar_critical_section ~fuel ~warp_id ~blame t cursors lane a)
            lanes)
        conflicting);
  regroup ~kind:Sync_site t stack e block cursors

(* ------------------------------------------------------------------ *)
(* Warp main loop                                                       *)

(* The event that follows a block's call, return, barrier or unlock
   terminator in every lane's trace. *)
type marker = M_call | M_ret | M_barrier | M_unlock

(* Consume [marker] from every active lane of [e], which just executed
   [block].  A missing barrier arrival would block the whole team forever
   on real hardware — a typed deadlock verdict. *)
let consume_markers cursors (e : entry) block marker =
  let m = ref (e.e_mask :> int) and lane = ref 0 in
  while !m <> 0 do
    if !m land 1 <> 0 then begin
      let c = cursors.(!lane) in
      match (marker, next c) with
      | M_call, _
      | M_ret, Thread_trace.Return
      | M_barrier, Thread_trace.Barrier
      | M_unlock, Thread_trace.Lock_rel ->
          ()
      | M_ret, _ ->
          errf "lane %d: expected return after f%d.b%d" !lane e.e_func block
      | M_barrier, _ ->
          Tf_error.fail ~thread:c.Cursor.tid Tf_error.Deadlock
            "lane %d: no barrier arrival after f%d.b%d (barrier never \
             satisfied)"
            !lane e.e_func block
      | M_unlock, _ ->
          errf "lane %d: expected unlock after f%d.b%d" !lane e.e_func block
    end;
    m := !m lsr 1;
    incr lane
  done

(* One warp's replay; {!run_warp} adds its warp-trace emission. *)
let replay_warp ?fuel t ~warp_id (cursors : Cursor.t array) =
  let fuel : fuel = Option.map ref fuel in
  t.scratch.cursors <- cursors;
  if t.config.record_timeline then
    t.tl_current <- Some (Vec.create ~capacity:256 { Timeline.n_instr = 0; active = 0 });
  let n_lanes = Array.length cursors in
  if n_lanes = 0 then ()
  else begin
    let worker =
      let c = cursors.(0) in
      match peek c with
      | Thread_trace.Block ->
          if block_id c <> 0 then
            errf "warp %d: trace does not start at entry" warp_id;
          arg c
      | _ -> errf "warp %d: empty trace" warp_id
    in
    let stack =
      Vec.create
        {
          e_func = 0;
          pc = 0;
          e_reconv = 0;
          e_mask = Mask.empty;
          e_blame = [];
          e_frame = false;
        }
    in
    Vec.push stack
      {
        e_func = worker;
        pc = 0;
        e_reconv = exit_node t worker;
        e_mask = Mask.full n_lanes;
        e_blame = [];
        e_frame = true;
      };
    set_call_stack t [ worker ];
    let s = t.scratch in
    while not (Vec.is_empty stack) do
      burn fuel ~warp_id;
      let e = Vec.top stack in
      if e.pc = e.e_reconv then begin
        if e.e_frame then
          set_call_stack t
            (match t.call_stack with _ :: rest -> rest | [] -> []);
        ignore (Vec.pop stack)
      end
      else if e.pc = exit_node t e.e_func then
        errf "warp %d: entry reached f%d's exit without popping" warp_id e.e_func
      else begin
        let block = e.pc in
        (* Consume this block from every active lane, staging the lanes and
           their access ranges in the scratch buffers (ascending). *)
        s.n_lanes <- 0;
        let m = ref (e.e_mask :> int) and lane = ref 0 in
        while !m <> 0 do
          if !m land 1 <> 0 then begin
            let c = cursors.(!lane) in
            match peek c with
            | Thread_trace.Block
              when arg c = e.e_func && block_id c = block ->
                stage s c !lane;
                advance c
            | _ ->
                (* a mismatch aborts the warp *)
                errf "lane %d: expected block f%d.b%d, trace has %s" !lane
                  e.e_func block (describe (Cursor.event c))
          end;
          m := !m lsr 1;
          incr lane
        done;
        let term =
          count_block t ~func:e.e_func ~block ~mask:e.e_mask ~blame:e.e_blame
        in
        match term with
        | Instr.Call callee -> (
            (* an excluded callee leaves no Call event: the lanes jump
               straight to the continuation block (paper §III's selective
               tracing) *)
            match peek cursors.(s.lane_ids.(0)) with
            | Thread_trace.Call ->
                consume_markers cursors e block M_call;
                e.pc <- block + 1;
                set_call_stack t (callee :: t.call_stack);
                Vec.push stack
                  {
                    e_func = callee;
                    pc = 0;
                    e_reconv = exit_node t callee;
                    e_mask = e.e_mask;
                    e_blame = e.e_blame;
                    e_frame = true;
                  }
            | _ -> regroup t stack e block cursors)
        | Instr.Ret ->
            consume_markers cursors e block M_ret;
            e.pc <- exit_node t e.e_func
        | Instr.Halt -> e.pc <- exit_node t e.e_func
        | Instr.Lock_acquire _ -> handle_locks ~fuel ~warp_id t stack e block cursors
        | Instr.Barrier _ ->
            (* all lanes arrive together (same block): within the warp a
               team barrier is free; count it and continue in lockstep.  A
               lane without the arrival would block the whole team forever
               on real hardware — a typed deadlock verdict. *)
            consume_markers cursors e block M_barrier;
            t.barrier_syncs <- t.barrier_syncs + 1;
            regroup t stack e block cursors
        | Instr.Lock_release _ ->
            consume_markers cursors e block M_unlock;
            regroup t stack e block cursors
        | Instr.Jcc _ | Instr.Jmp _ | Instr.Io _ | Instr.Mov _ | Instr.Cmov _
        | Instr.Lea _ | Instr.Binop _ | Instr.Unop _ | Instr.Cmp _
        | Instr.Atomic_rmw _ ->
            regroup t stack e block cursors
      end
    done;
    Array.iteri
      (fun lane c ->
        if not (Cursor.at_end c) then
          errf "warp %d lane %d: %d unconsumed trace events" warp_id lane
            (Array.length c.Cursor.trace.Thread_trace.events - c.Cursor.pos))
      cursors;
    match t.tl_current with
    | Some v ->
        t.timelines <-
          { Timeline.warp_id; warp_size = t.config.warp_size; samples = Vec.to_array v }
          :: t.timelines;
        t.tl_current <- None
    | None -> ()
  end

(** Replay one warp.  [cursors.(lane)] is the lane's trace cursor; all
    lanes must start at the same worker function.  [fuel] (when given)
    bounds the total number of stack steps + serialized events, raising a
    typed [Tf_error.Timeout] when exhausted — the replay watchdog of the
    checked pipeline. *)
let run_warp ?fuel t ~warp_id cursors =
  match t.wt with
  | None -> replay_warp ?fuel t ~warp_id cursors
  | Some wt ->
      (* an aborted warp keeps the micro-ops emitted before the abort *)
      Warp_trace.Builder.start wt ~warp:warp_id;
      (match replay_warp ?fuel t ~warp_id cursors with
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
    Transient per-warp state (call stack, scratch buffers, warp-trace
    handle) is left untouched. *)
let merge_into ~dst src =
  dst.issues <- dst.issues + src.issues;
  dst.thread_instrs <- dst.thread_instrs + src.thread_instrs;
  dst.lock_acquires <- dst.lock_acquires + src.lock_acquires;
  dst.serializations <- dst.serializations + src.serializations;
  dst.serialized_instrs <- dst.serialized_instrs + src.serialized_instrs;
  dst.barrier_syncs <- dst.barrier_syncs + src.barrier_syncs;
  let add_into d s = Array.iteri (fun i v -> d.(i) <- d.(i) + v) s in
  add_into dst.func_issues src.func_issues;
  add_into dst.func_instrs src.func_instrs;
  Array.iteri (fun fid s -> add_into dst.block_issues.(fid) s) src.block_issues;
  Array.iteri (fun fid s -> add_into dst.block_instrs.(fid) s) src.block_instrs;
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
