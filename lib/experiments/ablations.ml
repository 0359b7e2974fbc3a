(** Ablation studies for the design choices DESIGN.md calls out (not paper
    figures, but the knobs §III says architects can explore):

    1. warp-batching policy (sequential vs strided vs signature-greedy);
    2. reconvergence discipline (per-block IPDOM vs function-exit only);
    3. the GPU warp scheduler (greedy-then-oldest vs loose round-robin). *)

module W = Threadfuser_workloads.Workload
module Registry = Threadfuser_workloads.Registry
module Table = Threadfuser_report.Table
module Analyzer = Threadfuser.Analyzer
module Metrics = Threadfuser.Metrics
module Batching = Threadfuser.Batching
module Emulator = Threadfuser.Emulator
module Gpusim = Threadfuser_gpusim.Gpusim
module Gpu_config = Threadfuser_gpusim.Config

let divergent_picks = [ "pigz"; "bfs"; "b+tree"; "freqmine"; "particlefilter" ]

let batching ctx =
  Fmt.pr "@.== Ablation: warp-batching policy (warp 32) ==@.";
  let t =
    Table.create
      ([ ("workload", Table.L) ]
      @ List.map (fun p -> (Batching.to_string p, Table.R)) Batching.all)
  in
  List.iter
    (fun name ->
      let w = Registry.find name in
      let effs =
        List.map
          (fun batching ->
            let r = Ctx.analysis ~options:{ Analyzer.default_options with batching } ctx w in
            r.Analyzer.report.Metrics.simt_efficiency)
          Batching.all
      in
      Table.add_row t (name :: List.map Table.cell_pct effs))
    divergent_picks;
  Table.print ~name:"ablation_batching" t;
  Fmt.pr "@."

let reconvergence ctx =
  Fmt.pr
    "@.== Ablation: IPDOM reconvergence vs function-exit-only (warp 32) ==@.";
  let t =
    Table.create
      [ ("workload", Table.L); ("IPDOM", Table.R); ("function exit", Table.R) ]
  in
  List.iter
    (fun name ->
      let w = Registry.find name in
      let eff reconv =
        (Ctx.analysis ~options:{ Analyzer.default_options with reconv } ctx w)
          .Analyzer.report
          .Metrics.simt_efficiency
      in
      Table.add_row t
        [
          name;
          Table.cell_pct (eff Emulator.Ipdom_reconv);
          Table.cell_pct (eff Emulator.Function_exit_reconv);
        ])
    divergent_picks;
  Table.print ~name:"ablation_reconvergence" t;
  Fmt.pr "@."

let scheduler ctx =
  Fmt.pr "@.== Ablation: GPU warp scheduler (GTO vs LRR) ==@.";
  let t =
    Table.create
      [ ("workload", Table.L); ("GTO cycles", Table.R); ("LRR cycles", Table.R) ]
  in
  List.iter
    (fun name ->
      let w = Registry.find name in
      let tr = Ctx.traced ctx w in
      let r =
        Analyzer.analyze
          ~options:{ Analyzer.default_options with gen_warp_trace = true }
          tr.W.prog tr.W.traces
      in
      let wt = Option.get r.Analyzer.warp_trace in
      let cycles scheduler =
        (* one loaded SM so warp scheduling actually matters *)
        let config =
          { Fig6.gpu_config with Gpu_config.scheduler; n_sms = 1; max_warps_per_sm = 8 }
        in
        (Gpusim.run ~config wt).Gpusim.cycles
      in
      Table.add_row t
        [
          name;
          Table.cell_int (cycles Gpu_config.Gto);
          Table.cell_int (cycles Gpu_config.Lrr);
        ])
    [ "vectoradd"; "uncoalesced"; "nbody"; "bfs" ];
  Table.print ~name:"ablation_scheduler" t;
  Fmt.pr "@."

let lock_policy ctx =
  Fmt.pr
    "@.== Ablation: lock serialization policy (conflicting lanes vs whole \
     warp vs ignored) ==@.";
  let t =
    Table.create
      [
        ("workload", Table.L);
        ("conflicting-only", Table.R);
        ("whole-warp", Table.R);
        ("ignored", Table.R);
      ]
  in
  List.iter
    (fun name ->
      let w = Registry.find name in
      let eff sync =
        (Ctx.analysis ~options:{ Analyzer.default_options with sync } ctx w)
          .Analyzer.report
          .Metrics.simt_efficiency
      in
      Table.add_row t
        [
          name;
          Table.cell_pct (eff Emulator.Serialize);
          Table.cell_pct (eff Emulator.Serialize_all);
          Table.cell_pct (eff Emulator.Ignore_sync);
        ])
    [ "mcrouter-memcached"; "urlshort"; "uniqueid"; "post"; "fluidanimate" ];
  Table.print ~name:"ablation_lock_policy" t;
  Fmt.pr
    "@.the paper serializes only same-lock threads and defers other \
     reconvergence/serialization choices to future work (§III); whole-warp \
     serialization is the pessimistic end of that space.@."

let run ctx =
  batching ctx;
  reconvergence ctx;
  lock_policy ctx;
  scheduler ctx
