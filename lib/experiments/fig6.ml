(** Paper Fig. 6: projected speedup of each MIMD workload on SIMT hardware,
    normalized to multi-threaded CPU execution.

    Pipeline per workload: the analyzer replays the CPU traces into a
    warp-level RISC trace (CISC cracked, stack->local routing), the
    cycle-level SIMT simulator produces GPU cycles, and the multicore CPU
    timing model provides the baseline.  For the 11 correlation workloads
    the CUDA-style variant's trace gives the second series ("CUDA"), whose
    agreement with the ThreadFuser series is the paper's speedup-projection
    validation (Table II quotes a 0.97 correlation).

    The machines are scaled versions of the paper's testbed (the thread
    counts here are tens, not thousands): an 8-SM GPU at 1.5 GHz against an
    8-core CPU at 3 GHz.  Shapes, not absolute numbers, are the target. *)

module W = Threadfuser_workloads.Workload
module Registry = Threadfuser_workloads.Registry
module Table = Threadfuser_report.Table
module Stats = Threadfuser_stats.Stats
module Analyzer = Threadfuser.Analyzer
module Metrics = Threadfuser.Metrics
module Gpusim = Threadfuser_gpusim.Gpusim
module Gpu_config = Threadfuser_gpusim.Config
module Cpusim = Threadfuser_cpusim.Cpusim

let gpu_config =
  { Gpu_config.rtx3070 with Gpu_config.n_sms = 8; max_warps_per_sm = 16 }

let cpu_config = { Cpusim.default_config with Cpusim.n_cores = 8 }

type row = {
  workload : string;
  has_cuda : bool;
  speedup_tf : float; (* ThreadFuser trace on the simulator *)
  speedup_cuda : float option; (* CUDA trace on the simulator *)
  gpu : Gpusim.stats;
}

let warp_options =
  { Analyzer.default_options with Analyzer.gen_warp_trace = true }

let gpu_seconds ?(domains = 1) (tr : W.traced) =
  let r =
    Analyzer.analyze
      ~options:{ warp_options with Analyzer.domains }
      tr.W.prog tr.W.traces
  in
  let wt = Option.get r.Analyzer.warp_trace in
  let stats =
    Gpusim.run ~config:gpu_config
      ~domains:(Gpusim.effective_domains ~config:gpu_config ~domains wt)
      wt
  in
  (Gpusim.seconds ~config:gpu_config stats, stats)

let cpu_seconds ?(domains = 1) (tr : W.traced) =
  Cpusim.seconds ~config:cpu_config
    (Cpusim.run ~config:cpu_config ~domains tr.W.traces)

let series ctx : row list =
  List.map
    (fun (w : W.t) ->
      let tr = Ctx.traced ctx w in
      let cpu_t = cpu_seconds tr in
      let tf_t, gpu = gpu_seconds tr in
      let speedup_cuda =
        Option.map
          (fun cuda_tr ->
            (* the CUDA baseline still normalizes to the CPU execution *)
            let cuda_t, _ = gpu_seconds cuda_tr in
            cpu_t /. cuda_t)
          (Ctx.traced_cuda ctx w)
      in
      {
        workload = w.W.name;
        has_cuda = w.W.cuda <> None;
        speedup_tf = cpu_t /. tf_t;
        speedup_cuda;
        gpu;
      })
    Registry.all

let build rows =
  let t =
    Table.create
      [
        ("workload", Table.L);
        ("speedup (ThreadFuser)", Table.R);
        ("speedup (CUDA)", Table.R);
        ("GPU cycles", Table.R);
        ("GPU IPC", Table.R);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.workload;
          Table.cell_float r.speedup_tf;
          (match r.speedup_cuda with
          | Some s -> Table.cell_float s
          | None -> "-");
          Table.cell_int r.gpu.Gpusim.cycles;
          Table.cell_float (Gpusim.ipc r.gpu);
        ])
    rows;
  t

(** Correlation between the ThreadFuser and CUDA speedup series over the
    correlation workloads (the paper's 0.97). *)
let speedup_correlation rows =
  let pairs =
    List.filter_map
      (fun r -> Option.map (fun c -> (r.speedup_tf, c)) r.speedup_cuda)
      rows
  in
  let tf = Array.of_list (List.map fst pairs) in
  let cu = Array.of_list (List.map snd pairs) in
  Stats.pearson tf cu

(* Mean relative execution-time error between the two projected series
   (Table II quotes 33%). *)
let time_error rows =
  let pairs =
    List.filter_map
      (fun r -> Option.map (fun c -> (r.speedup_tf, c)) r.speedup_cuda)
      rows
  in
  Stats.mape
    ~predicted:(Array.of_list (List.map fst pairs))
    ~reference:(Array.of_list (List.map snd pairs))

let run ctx =
  Fmt.pr
    "@.== Fig. 6: projected GPU speedup vs multithreaded CPU (8 SMs vs 8 \
     cores, scaled) ==@.";
  let rows =
    List.sort (fun a b -> compare b.speedup_tf a.speedup_tf) (series ctx)
  in
  Table.print ~name:"fig6" (build rows);
  let corr = speedup_correlation rows in
  Fmt.pr
    "@.speedup-projection correlation (ThreadFuser vs CUDA series): %.3f; \
     mean relative time error %.0f%%@.@."
    corr
    (100. *. time_error rows);
  (rows, corr)
