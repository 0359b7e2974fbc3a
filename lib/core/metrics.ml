(** Analyzer outputs: whole-program and per-function SIMT statistics.

    SIMT efficiency follows the paper's Equation 1:

    {v efficiency = thread_instrs / (issues * warp_size) v}

    where [issues] counts instructions fetched once per warp (lock-step
    slots) and [thread_instrs] counts instructions summed over the active
    threads that executed them. *)

type func_stat = {
  fid : int;
  func_name : string;
  issues : int; (* warp-level lock-step issues attributed to the function *)
  thread_instrs : int; (* per-thread instructions (exclusive of callees) *)
  efficiency : float;
  instr_share : float; (* fraction of all thread instructions *)
}

type block_stat = {
  block_fid : int;
  block_func : string;
  block_id : int;
  src_label : string option; (* surface label, when the block started at one *)
  block_issues : int;
  block_instrs : int;
  block_efficiency : float;
}

type warp_stat = {
  warp_id : int;
  warp_issues : int;
  warp_instrs : int;
  warp_efficiency : float;
  lanes : int; (* threads actually in the warp (the tail may be partial) *)
}

type segment_stat = {
  txns : int; (* 32 B transactions *)
  mem_issues : int; (* warp-level load/store instructions *)
  txns_per_instr : float;
}

(* Site-level bottleneck attribution (the paper's Fig. 7 workflow made
   automatic): which branch site caused each divergence split and what it
   cost, and which access site burned transactions beyond the
   perfectly-coalesced minimum. *)

type div_site = {
  ds_fid : int;
  ds_func : string;
  ds_block : int;
  ds_label : string option; (* surface label of the diverging block *)
  ds_kind : [ `Branch | `Sync ]; (* branch divergence or lock serialization *)
  ds_splits : int; (* warp splits originating at the site *)
  ds_lost_lanes : int; (* inactive-lane issue slots charged to the site *)
  ds_recoverable : float; (* efficiency points recoverable: lost / (issues * warp) *)
}

type mem_site = {
  ms_fid : int;
  ms_func : string;
  ms_block : int;
  ms_ioff : int; (* instruction offset within the block *)
  ms_label : string option;
  ms_issues : int; (* warp-level load/store instructions at the site *)
  ms_txns : int; (* 32 B transactions generated *)
  ms_min_txns : int; (* perfectly-coalesced minimum *)
  ms_excess : int; (* transactions beyond the minimum *)
  ms_stack_excess : int; (* excess split by address segment *)
  ms_heap_excess : int;
  ms_global_excess : int;
}

(* How much of the input the report actually covers.  The checked pipeline
   quarantines threads that fail validation or replay and keeps going, so a
   partial report is explicit rather than silently wrong. *)
type coverage = {
  threads_total : int; (* threads handed to the analyzer *)
  threads_analyzed : int; (* threads whose replay completed *)
  threads_quarantined : int; (* failed validation or replay *)
  events_dropped : int; (* trace events of the quarantined threads *)
  warps_failed : int; (* warps whose replay aborted (watchdog / desync) *)
}

type report = {
  warp_size : int;
  n_threads : int;
  n_warps : int;
  issues : int;
  thread_instrs : int;
  simt_efficiency : float;
  per_function : func_stat list; (* sorted by descending instr share *)
  per_warp : warp_stat list; (* in warp order *)
  hot_blocks : block_stat list; (* top divergent blocks by wasted issues *)
  divergence_sites : div_site list; (* ranked by descending lost-lane cost *)
  mem_sites : mem_site list; (* ranked by descending excess transactions *)
  stack_mem : segment_stat;
  heap_mem : segment_stat;
  global_mem : segment_stat;
  total_mem_txns : int;
  total_mem_issues : int;
  skipped_io : int;
  skipped_spin : int;
  skipped_excluded : int; (* instructions inside excluded functions *)
  lock_acquires : int;
  barrier_syncs : int; (* warp-level team-barrier crossings *)
  serializations : int; (* same-lock warp conflicts serialized *)
  serialized_instrs : int; (* instructions executed under serialization *)
  coverage : coverage;
}

(** A report is degraded when any thread was quarantined or any warp's
    replay aborted. *)
let degraded r =
  r.coverage.threads_quarantined > 0 || r.coverage.warps_failed > 0

let efficiency ~issues ~thread_instrs ~warp_size =
  if issues = 0 then 1.0
  else float_of_int thread_instrs /. float_of_int (issues * warp_size)

let segment_stat (c : Coalesce.seg_counters) =
  {
    txns = c.ld_txns + c.st_txns;
    mem_issues = c.ld_issues + c.st_issues;
    txns_per_instr = Coalesce.txns_per_instr c;
  }

(** Fraction of dynamic instructions that were traced (vs skipped as I/O or
    lock spinning) — the quantity of paper Fig. 8. *)
let traced_fraction r =
  let total =
    r.thread_instrs + r.skipped_io + r.skipped_spin + r.skipped_excluded
  in
  if total = 0 then 1.0 else float_of_int r.thread_instrs /. float_of_int total

(** Mean 32 B transactions per warp-level load/store over all segments. *)
let txns_per_mem_instr r =
  if r.total_mem_issues = 0 then 0.0
  else float_of_int r.total_mem_txns /. float_of_int r.total_mem_issues

let pp_summary ppf r =
  Fmt.pf ppf
    "warp=%d threads=%d warps=%d | SIMT efficiency %.1f%% | mem %d txns / %d \
     ld-st (%.2f per instr) | traced %.1f%%"
    r.warp_size r.n_threads r.n_warps (100. *. r.simt_efficiency)
    r.total_mem_txns r.total_mem_issues (txns_per_mem_instr r)
    (100. *. traced_fraction r);
  if degraded r then
    Fmt.pf ppf
      "@.PARTIAL: %d/%d threads analyzed (%d quarantined, %d events \
       dropped, %d warps failed)"
      r.coverage.threads_analyzed r.coverage.threads_total
      r.coverage.threads_quarantined r.coverage.events_dropped
      r.coverage.warps_failed

let pp_blocks ppf r =
  Fmt.pf ppf "%-22s %-14s %10s %10s %7s@." "function.block" "label" "issues"
    "instrs" "eff";
  List.iter
    (fun b ->
      Fmt.pf ppf "%-22s %-14s %10d %10d %6.1f%%@."
        (Printf.sprintf "%s.b%d" b.block_func b.block_id)
        (Option.value ~default:"-" b.src_label)
        b.block_issues b.block_instrs
        (100. *. b.block_efficiency))
    r.hot_blocks

let pp_warps ppf r =
  Fmt.pf ppf "%-6s %6s %10s %10s %7s@." "warp" "lanes" "issues" "instrs" "eff";
  List.iter
    (fun w ->
      Fmt.pf ppf "%-6d %6d %10d %10d %6.1f%%@." w.warp_id w.lanes w.warp_issues
        w.warp_instrs
        (100. *. w.warp_efficiency))
    r.per_warp

let site_kind_name = function `Branch -> "branch" | `Sync -> "sync"

(** The blame report: top divergence sites by lost-lane issue slots, then
    top access sites by excess 32 B transactions. *)
let pp_blame ppf r =
  if r.divergence_sites = [] then
    Fmt.pf ppf "no divergence splits recorded@."
  else begin
    Fmt.pf ppf "top divergence sites (by lost-lane issue slots):@.";
    Fmt.pf ppf "%-4s %-24s %-14s %-7s %8s %12s %12s@." "rank" "site" "label"
      "kind" "splits" "lost slots" "recoverable";
    List.iteri
      (fun i s ->
        Fmt.pf ppf "%-4d %-24s %-14s %-7s %8d %12d %11.1f%%@." (i + 1)
          (Printf.sprintf "%s.b%d" s.ds_func s.ds_block)
          (Option.value ~default:"-" s.ds_label)
          (site_kind_name s.ds_kind) s.ds_splits s.ds_lost_lanes
          (100. *. s.ds_recoverable))
      r.divergence_sites
  end;
  let divergent = List.filter (fun m -> m.ms_excess > 0) r.mem_sites in
  if divergent <> [] then begin
    Fmt.pf ppf "@.top memory sites (by excess 32 B transactions):@.";
    Fmt.pf ppf "%-4s %-24s %-14s %8s %8s %8s %8s %22s@." "rank" "site" "label"
      "ld/st" "txns" "min" "excess" "stack/heap/global";
    List.iteri
      (fun i m ->
        Fmt.pf ppf "%-4d %-24s %-14s %8d %8d %8d %8d %12s@." (i + 1)
          (Printf.sprintf "%s.b%d+%d" m.ms_func m.ms_block m.ms_ioff)
          (Option.value ~default:"-" m.ms_label)
          m.ms_issues m.ms_txns m.ms_min_txns m.ms_excess
          (Printf.sprintf "%d/%d/%d" m.ms_stack_excess m.ms_heap_excess
             m.ms_global_excess))
      divergent
  end

let pp_functions ppf r =
  Fmt.pf ppf "%-28s %10s %10s %8s %7s@." "function" "issues" "instrs" "share"
    "eff";
  List.iter
    (fun f ->
      Fmt.pf ppf "%-28s %10d %10d %7.1f%% %6.1f%%@." f.func_name f.issues
        f.thread_instrs (100. *. f.instr_share) (100. *. f.efficiency))
    r.per_function
