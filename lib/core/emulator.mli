(** The SIMT-stack warp emulator — ThreadFuser's analysis core (paper §III).

    Replays the per-thread traces of one warp's lanes in lock-step under
    the stack-based IPDOM reconvergence discipline of real SIMT hardware:
    divergent branches push one stack entry per distinct destination with
    the nearest-common-post-dominator as the reconvergence point; calls
    push function frames that reconverge at the callee's virtual exit; and
    lanes contending on the same lock serialize through their critical
    sections one at a time ([Serialize] mode), reconverging afterwards
    through the ordinary divergence mechanism.

    Most users want {!Analyzer.analyze}, which drives this module. *)

exception Emulation_error of string
(** Trace/program mismatch (an emulator invariant violation, not a user
    error under normal use).  Watchdog verdicts — replay fuel exhausted,
    a lock never released, a barrier never satisfied — are raised as the
    typed [Threadfuser_util.Tf_error.Error] with kind [Timeout] or
    [Deadlock] instead, so the checked pipeline can quarantine and keep
    going (docs/robustness.md). *)

type sync_mode =
  | Serialize
      (** serialize only lanes contending on the same lock (paper §III) *)
  | Serialize_all
      (** pessimistic: any lock acquire serializes every lane's critical
          section — one of the alternative designs the paper's §III defers
          to future work *)
  | Ignore_sync  (** lock-oblivious estimate (paper Fig. 9's comparison) *)

type reconv_mode =
  | Ipdom_reconv  (** per-block IPDOM reconvergence (real hardware) *)
  | Function_exit_reconv  (** ablation: reconverge only at function end *)

type config = {
  warp_size : int;
  sync : sync_mode;
  reconv : reconv_mode;
  record_timeline : bool;  (** record per-warp occupancy samples *)
}

(** {1 Site-level divergence attribution}

    Every warp split is tagged with its originating [(fid, block)] site
    (index [div_base.(fid) + block] of [div_sites]),
    and every block executed inside the divergent region charges the site
    its marginal lost-lane cost — (parent active lanes - child active
    lanes) inactive issue slots per lock-step issue — until the child pops
    at its reconvergence point.  Lock serialization charges the
    lock-acquire site (contenders - 1) slots per serialized issue. *)

type site_kind =
  | Branch_site  (** lanes branched to different blocks *)
  | Sync_site  (** lock serialization scattered the lanes *)

type div_site_cell = {
  mutable sc_splits : int;  (** warp splits originating at the site *)
  mutable sc_lost : int;  (** inactive-lane issue slots charged to it *)
  mutable sc_kind : site_kind;
}

(** A blame chain: (site index, lanes lost per lock-step issue) per
    enclosing divergence. *)
type blame = (int * int) list

(** Folded-stack accumulation for the replay flamegraph, keyed by the
    warp's call stack (leaf first). *)
type flame_cell = { mutable fc_issues : int; mutable fc_lost : int }

type scratch
(** Reusable hot-path buffers (per-block lane staging, per-instruction
    load/store gather, regroup target grouping); internal. *)

type t = {
  prog : Threadfuser_prog.Program.t;
  ipdoms : Threadfuser_cfg.Ipdom.t array;
  config : config;
  coalesce : Coalesce.t;
  func_issues : int array;  (** per-function warp-level issues *)
  func_instrs : int array;  (** per-function thread instructions *)
  block_issues : int array array;  (** per function, per block *)
  block_instrs : int array array;
  mutable issues : int;
  mutable thread_instrs : int;
  mutable lock_acquires : int;
  mutable serializations : int;
  mutable serialized_instrs : int;
  mutable barrier_syncs : int;  (** warp-level barrier crossings *)
  wt : Warp_trace.Builder.emitter option;
  mutable tl_current : Timeline.sample Threadfuser_util.Vec.t option;
  mutable timelines : Timeline.t list;  (** finished warps, reversed *)
  div_base : int array;
      (** per function: site index of its block 0; entry [n_funcs] is the
          total *)
  div_sites : div_site_cell array;
      (** divergence attribution per static block, across all warps *)
  flame : (int list, flame_cell) Hashtbl.t;
      (** folded call stacks (leaf first), across all warps *)
  mutable call_stack : int list;  (** replaying warp's frames, leaf first *)
  mutable flame_cur : flame_cell option;
      (** cached flamegraph cell for [call_stack] *)
  mutable obs_on : bool;  (** [!Obs.enabled], cached per replay *)
  scratch : scratch;
}

val create :
  ?warp_trace:Warp_trace.Builder.t ->
  Threadfuser_prog.Program.t ->
  Threadfuser_cfg.Ipdom.t array ->
  config ->
  t

(** [iter_div_sites t f] calls [f ~fid ~block cell] for every static
    block, in [(fid, block)] order. *)
val iter_div_sites : t -> (fid:int -> block:int -> div_site_cell -> unit) -> unit

(** Replay one warp; [cursors.(lane)] is the lane's trace cursor.  Counters
    accumulate across calls, so one [t] serves a whole grid of warps.
    [fuel] (when given) bounds the total stack steps + serialized events,
    raising [Tf_error.Error] with kind [Timeout] when exhausted — the
    replay watchdog of {!Analyzer.analyze_checked}. *)
val run_warp : ?fuel:int -> t -> warp_id:int -> Cursor.t array -> unit

(** [merge_into ~dst src] folds [src]'s accumulated metrics into [dst] —
    the shard-reduction step of the domain-parallel replay
    ({!Analyzer.options.domains}): each domain replays a disjoint warp
    slice into a private emulator, and merging the shards in worker order
    reproduces exactly the totals of a sequential replay.  [src] is left
    intact; transient per-warp state is untouched. *)
val merge_into : dst:t -> t -> unit
