(** Analyzer outputs: whole-program and per-function SIMT statistics.

    SIMT efficiency follows the paper's Equation 1:
    [thread_instrs / (issues * warp_size)], where [issues] counts
    instructions fetched once per warp (lock-step slots) and
    [thread_instrs] counts instructions summed over the active lanes. *)

type func_stat = {
  fid : int;
  func_name : string;
  issues : int;  (** warp-level lock-step issues attributed to the function *)
  thread_instrs : int;  (** per-thread instructions, exclusive of callees *)
  efficiency : float;
  instr_share : float;  (** fraction of all thread instructions *)
}

type block_stat = {
  block_fid : int;
  block_func : string;
  block_id : int;
  src_label : string option;  (** surface label, when the block had one *)
  block_issues : int;
  block_instrs : int;
  block_efficiency : float;
}

type warp_stat = {
  warp_id : int;
  warp_issues : int;
  warp_instrs : int;
  warp_efficiency : float;
  lanes : int;  (** threads actually in the warp (the tail may be partial) *)
}

type segment_stat = {
  txns : int;  (** 32 B transactions *)
  mem_issues : int;  (** warp-level load/store instructions *)
  txns_per_instr : float;
}

(** A divergence-blame site: a branch (or lock) whose splits cost the warp
    inactive-lane issue slots (the paper's Fig. 7 workflow, automated). *)
type div_site = {
  ds_fid : int;
  ds_func : string;
  ds_block : int;
  ds_label : string option;  (** surface label of the diverging block *)
  ds_kind : [ `Branch | `Sync ];
      (** branch divergence or lock-serialization scatter *)
  ds_splits : int;  (** warp splits originating at the site *)
  ds_lost_lanes : int;  (** inactive-lane issue slots charged to the site *)
  ds_recoverable : float;
      (** whole-program efficiency points recoverable at the site:
          [lost / (issues * warp_size)] *)
}

(** A memory-blame site: a load/store instruction charged the 32 B
    transactions it generated beyond the perfectly-coalesced minimum. *)
type mem_site = {
  ms_fid : int;
  ms_func : string;
  ms_block : int;
  ms_ioff : int;  (** instruction offset within the block *)
  ms_label : string option;
  ms_issues : int;  (** warp-level load/store instructions at the site *)
  ms_txns : int;  (** 32 B transactions generated *)
  ms_min_txns : int;  (** perfectly-coalesced minimum *)
  ms_excess : int;  (** transactions beyond the minimum *)
  ms_stack_excess : int;  (** excess split by address segment *)
  ms_heap_excess : int;
  ms_global_excess : int;
}

(** How much of the input the report actually covers: the checked pipeline
    ({!Analyzer.analyze_checked}) quarantines threads that fail validation
    or replay and keeps going, so a partial report is explicit rather than
    silently wrong. *)
type coverage = {
  threads_total : int;  (** threads handed to the analyzer *)
  threads_analyzed : int;  (** threads whose replay completed *)
  threads_quarantined : int;  (** failed validation or replay *)
  events_dropped : int;  (** trace events of the quarantined threads *)
  warps_failed : int;  (** warps whose replay aborted *)
}

type report = {
  warp_size : int;
  n_threads : int;
  n_warps : int;
  issues : int;
  thread_instrs : int;
  simt_efficiency : float;
  per_function : func_stat list;  (** sorted by descending instruction share *)
  per_warp : warp_stat list;  (** per-warp breakdown, in warp order *)
  hot_blocks : block_stat list;
      (** the most issue-expensive divergent basic blocks — the paper's
          "pinpoint code regions" at finer-than-function granularity *)
  divergence_sites : div_site list;
      (** blame ranking: sites by descending lost-lane cost *)
  mem_sites : mem_site list;
      (** blame ranking: access sites by descending excess transactions *)
  stack_mem : segment_stat;
  heap_mem : segment_stat;
  global_mem : segment_stat;
  total_mem_txns : int;
  total_mem_issues : int;
  skipped_io : int;
  skipped_spin : int;
  skipped_excluded : int;  (** instructions inside excluded functions *)
  lock_acquires : int;
  barrier_syncs : int;  (** warp-level team-barrier crossings *)
  serializations : int;  (** same-lock warp conflict groups serialized *)
  serialized_instrs : int;  (** instructions executed one-lane-at-a-time *)
  coverage : coverage;
}

(** True when any thread was quarantined or any warp's replay aborted. *)
val degraded : report -> bool

(** Equation 1; defined as 1.0 when nothing was issued. *)
val efficiency : issues:int -> thread_instrs:int -> warp_size:int -> float

val segment_stat : Coalesce.seg_counters -> segment_stat

(** Fraction of dynamic instructions traced (vs skipped I/O + lock spin) —
    the quantity of paper Fig. 8. *)
val traced_fraction : report -> float

(** Mean 32 B transactions per warp-level load/store over all segments. *)
val txns_per_mem_instr : report -> float

val site_kind_name : [ `Branch | `Sync ] -> string

val pp_summary : Format.formatter -> report -> unit

(** The blame report: divergence sites ranked by lost-lane issue slots,
    then access sites ranked by excess 32 B transactions. *)
val pp_blame : Format.formatter -> report -> unit

val pp_warps : Format.formatter -> report -> unit

val pp_blocks : Format.formatter -> report -> unit

val pp_functions : Format.formatter -> report -> unit
