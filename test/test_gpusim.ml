(* Tests for the cycle-level SIMT simulator and the CPU timing model. *)

open Threadfuser
module Cache = Threadfuser_gpusim.Cache
module Dram = Threadfuser_gpusim.Dram
module Config = Threadfuser_gpusim.Config
module Gpusim = Threadfuser_gpusim.Gpusim
module Cpusim = Threadfuser_cpusim.Cpusim
module Machine = Threadfuser_machine.Machine
module Program = Threadfuser_prog.Program
module Build = Threadfuser_prog.Build
open Threadfuser_isa

(* -- cache --------------------------------------------------------------- *)

let small_cache () =
  Cache.create { Cache.size_bytes = 1024; assoc = 2; line_bytes = 32 }

let test_cache_hit_after_miss () =
  let c = small_cache () in
  Alcotest.(check bool) "first is miss" false (Cache.access c 0x100);
  Alcotest.(check bool) "second is hit" true (Cache.access c 0x100);
  Alcotest.(check bool) "same line hits" true (Cache.access c 0x11f);
  Alcotest.(check bool) "next line misses" false (Cache.access c 0x120)

let test_cache_lru_eviction () =
  let c = Cache.create { Cache.size_bytes = 64; assoc = 2; line_bytes = 32 } in
  (* one set, two ways *)
  ignore (Cache.access c 0x000);
  ignore (Cache.access c 0x020);
  ignore (Cache.access c 0x000);
  (* 0x020 is now LRU; inserting a third line evicts it *)
  ignore (Cache.access c 0x040);
  Alcotest.(check bool) "0x000 survives" true (Cache.access c 0x000);
  Alcotest.(check bool) "0x020 evicted" false (Cache.access c 0x020)

let test_cache_bigger_is_better () =
  let trace = Array.init 2000 (fun i -> i * 32 mod 4096) in
  let rate size =
    let c = Cache.create { Cache.size_bytes = size; assoc = 4; line_bytes = 32 } in
    Array.iter (fun a -> ignore (Cache.access c a)) trace;
    Cache.hit_rate c
  in
  Alcotest.(check bool) "4K <= 8K hit rate" true (rate 1024 <= rate 8192 +. 1e-9)

(* The division reference for [Cache.access]: set and tag by [/] and
   [mod], ways searched in order, LRU victim by strict [<] on stamps. *)
let reference_access (cfg : Cache.config) tags stamps clock addr =
  incr clock;
  let n_sets = cfg.Cache.size_bytes / cfg.Cache.line_bytes / cfg.Cache.assoc in
  let line_addr = addr / cfg.Cache.line_bytes in
  let set = line_addr mod n_sets and tag = line_addr / n_sets in
  let base = set * cfg.Cache.assoc in
  let hit = ref (-1) in
  for way = cfg.Cache.assoc - 1 downto 0 do
    if tags.(base + way) = tag then hit := way
  done;
  if !hit >= 0 then begin
    stamps.(base + !hit) <- !clock;
    true
  end
  else begin
    let victim = ref base in
    for way = 1 to cfg.Cache.assoc - 1 do
      if stamps.(base + way) < stamps.(!victim) then victim := base + way
    done;
    tags.(!victim) <- tag;
    stamps.(!victim) <- !clock;
    false
  end

(* The shift/mask fast path agrees with the reference on every access —
   hit or miss, or the same exception — for power-of-two and other set
   counts and line sizes, negative addresses included. *)
let test_cache_fast_path_matches_reference =
  let gen =
    QCheck.Gen.(
      let* line_bytes = oneofl [ 16; 32; 48; 64 ] in
      let* assoc = oneofl [ 1; 2; 3; 4; 8 ] in
      let* n_sets = oneofl [ 1; 2; 8; 24; 64; 100 ] in
      let* addrs =
        list_size (int_range 1 300)
          (frequency [ (6, int_range (-2048) 16384); (1, int); (1, map (fun x -> -x) int) ])
      in
      return ({ Cache.size_bytes = line_bytes * assoc * n_sets; assoc; line_bytes }, addrs))
  in
  QCheck.Test.make ~name:"cache fast path equals the division reference" ~count:300
    (QCheck.make gen) (fun (cfg, addrs) ->
      let c = Cache.create cfg in
      let lines = cfg.Cache.size_bytes / cfg.Cache.line_bytes in
      let tags = Array.make lines (-1) and stamps = Array.make lines 0 and clock = ref 0 in
      let outcome f = match f () with b -> Ok b | exception e -> Error (Printexc.to_string e) in
      List.for_all
        (fun a ->
          outcome (fun () -> Cache.access c a)
          = outcome (fun () -> reference_access cfg tags stamps clock a))
        addrs
      && c.Cache.tags = tags && c.Cache.stamps = stamps)

(* -- dram ---------------------------------------------------------------- *)

let test_dram_latency_and_bandwidth () =
  let d = Dram.create ~latency:100 ~transactions_per_cycle:1.0 in
  Alcotest.(check int) "first" 100 (Dram.access d ~now:0);
  Alcotest.(check int) "second queues" 101 (Dram.access d ~now:0);
  Alcotest.(check int) "third queues" 102 (Dram.access d ~now:0);
  (* after a quiet period the channel is free again *)
  Alcotest.(check int) "later access" 1100 (Dram.access d ~now:1000)

(* -- gpusim on synthetic warp traces ------------------------------------- *)

let alu_op =
  { Warp_trace.cls = Opclass.Ialu; dst = 1; srcs = [| 1 |]; mem = None }

let indep_op dst =
  { Warp_trace.cls = Opclass.Ialu; dst; srcs = [||]; mem = None }

let entry ?(mask = Mask.full 32) op = { Warp_trace.mask; op }

let kernel ops = Warp_trace.of_entries ~warp_size:32 [| (0, ops) |]

let tiny = Config.tiny

let test_dependent_chain_slower () =
  let dep = kernel (Array.init 64 (fun _ -> entry alu_op)) in
  let indep = kernel (Array.init 64 (fun i -> entry (indep_op (i mod 8)))) in
  let sd = Gpusim.run ~config:tiny dep in
  let si = Gpusim.run ~config:tiny indep in
  Alcotest.(check bool)
    (Printf.sprintf "dep %d > indep %d cycles" sd.Gpusim.cycles si.Gpusim.cycles)
    true
    (sd.Gpusim.cycles > si.Gpusim.cycles)

let load_op addrs =
  {
    Warp_trace.cls = Opclass.Load;
    dst = 1;
    srcs = [||];
    mem =
      Some { Warp_trace.is_store = false; size = 8; space = Warp_trace.Global; addrs };
  }

let test_divergent_loads_slower () =
  let coalesced i =
    entry (load_op (Array.init 32 (fun l -> (i * 256) + (8 * l))))
  in
  let divergent i =
    entry (load_op (Array.init 32 (fun l -> (i * 32768) + (1024 * l))))
  in
  let sc = Gpusim.run ~config:tiny (kernel (Array.init 32 coalesced)) in
  let sv = Gpusim.run ~config:tiny (kernel (Array.init 32 divergent)) in
  Alcotest.(check bool) "divergent more dram txns" true
    (sv.Gpusim.dram_transactions > sc.Gpusim.dram_transactions);
  Alcotest.(check bool) "divergent slower" true (sv.Gpusim.cycles > sc.Gpusim.cycles)

let test_more_warps_scale () =
  (* with many independent warps, 8 SMs beat 1 SM *)
  let mk n_warps =
    Warp_trace.of_entries ~warp_size:32
      (Array.init n_warps (fun warp_id ->
           (warp_id, Array.init 200 (fun i -> entry (indep_op (i mod 4))))))
  in
  let cfg n_sms = { tiny with Config.n_sms } in
  let s1 = Gpusim.run ~config:(cfg 1) (mk 16) in
  let s8 = Gpusim.run ~config:(cfg 8) (mk 16) in
  Alcotest.(check bool) "8 SMs faster" true (s8.Gpusim.cycles < s1.Gpusim.cycles)

let test_deterministic () =
  let k = kernel (Array.init 100 (fun i -> entry (indep_op (i mod 3)))) in
  let a = Gpusim.run ~config:tiny k and b = Gpusim.run ~config:tiny k in
  Alcotest.(check int) "same cycles" a.Gpusim.cycles b.Gpusim.cycles

let test_lrr_vs_gto_both_finish () =
  let k =
    Warp_trace.of_entries ~warp_size:32
      (Array.init 8 (fun warp_id -> (warp_id, Array.init 50 (fun _ -> entry alu_op))))
  in
  let g = Gpusim.run ~config:{ tiny with Config.scheduler = Config.Gto } k in
  let l = Gpusim.run ~config:{ tiny with Config.scheduler = Config.Lrr } k in
  Alcotest.(check int) "same instrs" g.Gpusim.instructions l.Gpusim.instructions;
  Alcotest.(check bool) "both finish" true (g.Gpusim.cycles > 0 && l.Gpusim.cycles > 0)

(* -- end to end: workload -> analyzer -> gpusim -------------------------- *)

let vec_worker =
  Build.(
    func "worker"
      [
        mov (reg 1) (reg 0);
        shl (reg 1) (imm 3);
        add (reg 1) (imm 0x20000);
        mov (reg 2) (mem ~base:1 ());
        fadd (reg 2) (imm 3);
        mov (mem ~base:1 ()) (reg 2);
        ret;
      ])

let test_end_to_end_pipeline () =
  let prog = Program.assemble [ vec_worker ] in
  let m = Machine.create prog in
  let r =
    Machine.run_workers m ~worker:"worker" ~args:(Array.init 64 (fun i -> [ i ]))
  in
  let res =
    Analyzer.analyze
      ~options:{ Analyzer.default_options with gen_warp_trace = true }
      prog r.Machine.traces
  in
  let wt = Option.get res.Analyzer.warp_trace in
  Alcotest.(check int) "two warps" 2 (Array.length wt.Warp_trace.warps);
  let s = Gpusim.run ~config:tiny wt in
  Alcotest.(check bool) "cycles positive" true (s.Gpusim.cycles > 0);
  Alcotest.(check bool) "instructions positive" true (s.Gpusim.instructions > 0);
  (* every micro-op was issued exactly once *)
  Alcotest.(check int) "ops all issued" (Warp_trace.total_ops wt) s.Gpusim.instructions

(* The one-line stats summary separates its fields with single spaces. *)
let test_pp_stats_spacing () =
  let s = Gpusim.run ~config:tiny (kernel (Array.init 64 (fun _ -> entry alu_op))) in
  let line = Fmt.str "%a" Gpusim.pp_stats s in
  (* a double space (or a leading/trailing one) leaves an empty field *)
  Alcotest.(check bool)
    (Printf.sprintf "no double space in %S" line)
    false
    (List.mem "" (String.split_on_char ' ' line))

let test_stall_attribution () =
  (* a dependent ALU chain stalls on dependencies; divergent loads consumed
     immediately stall on memory *)
  let dep = kernel (Array.init 64 (fun _ -> entry alu_op)) in
  let sd = Gpusim.run ~config:tiny dep in
  Alcotest.(check bool) "alu chain: dependency stalls dominate" true
    (sd.Gpusim.stall_dependency > sd.Gpusim.stall_memory);
  let loads_then_use i =
    if i mod 2 = 0 then
      entry (load_op (Array.init 32 (fun l -> (i * 32768) + (1024 * l))))
    else entry { Warp_trace.cls = Opclass.Ialu; dst = 2; srcs = [| 1 |]; mem = None }
  in
  let mem_bound = kernel (Array.init 64 loads_then_use) in
  let sm_ = Gpusim.run ~config:tiny mem_bound in
  Alcotest.(check bool) "load-use chain: memory stalls dominate" true
    (sm_.Gpusim.stall_memory > sm_.Gpusim.stall_dependency);
  Alcotest.(check bool) "classified as memory-bound" true
    (Gpusim.bottleneck sm_ = `Memory)

let test_analyzer_gpusim_lane_consistency () =
  (* the warp trace's per-micro-op lane accounting must tell the same
     divergence story the analyzer's Eq. 1 tells, within the reweighting
     that cracking introduces (micro-ops per instruction vary by kind) *)
  List.iter
    (fun name ->
      let w = Threadfuser_workloads.Registry.find name in
      let tr = Threadfuser_workloads.Workload.trace_cpu ~threads:64 w in
      let r =
        Analyzer.analyze
          ~options:{ Analyzer.default_options with gen_warp_trace = true }
          tr.Threadfuser_workloads.Workload.prog
          tr.Threadfuser_workloads.Workload.traces
      in
      let wt = Option.get r.Analyzer.warp_trace in
      let s = Gpusim.run ~config:tiny wt in
      let mop_eff =
        float_of_int s.Gpusim.thread_instructions
        /. float_of_int (s.Gpusim.instructions * 32)
      in
      let eff = r.Analyzer.report.Metrics.simt_efficiency in
      Alcotest.(check bool)
        (Printf.sprintf "%s: |%.3f - %.3f| < 0.12" name mop_eff eff)
        true
        (abs_float (mop_eff -. eff) < 0.12))
    [ "vectoradd"; "bfs"; "b+tree"; "md5" ]

(* -- domain-parallel simulation: epoch/domain invariance ------------------ *)

let check_stats_equal msg (a : Gpusim.stats) (b : Gpusim.stats) =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d/%d cycles, %d/%d l2m, %d/%d dram" msg
       a.Gpusim.cycles b.Gpusim.cycles a.Gpusim.l2_misses b.Gpusim.l2_misses
       a.Gpusim.dram_transactions b.Gpusim.dram_transactions)
    true (a = b)

(* Random kernels: mixed ALU / load ops, partial masks, skewed warp
   sizes — everything that could expose an ordering leak in the
   SM-partition + cycle-epoch merge. *)
let gen_kernel =
  QCheck.Gen.(
    let gen_op warp seed =
      if seed mod 3 = 0 then
        load_op
          (Array.init 32 (fun l ->
               (warp * 4096) + (seed * 256 mod 32768) + (64 * l)))
      else if seed mod 3 = 1 then alu_op
      else indep_op (seed mod 8)
    in
    let* n_warps = int_range 1 8 in
    let* lens = array_repeat n_warps (int_range 1 60) in
    let* seeds = array_repeat n_warps (int_range 0 1000) in
    return
      (Warp_trace.of_entries ~warp_size:32
         (Array.init n_warps (fun warp_id ->
              let mask =
                if seeds.(warp_id) mod 4 = 0 then Mask.full 17 else Mask.full 32
              in
              ( warp_id,
                Array.init lens.(warp_id) (fun i ->
                    entry ~mask (gen_op warp_id (seeds.(warp_id) + i))) )))))

(* The tentpole invariant: stats are a pure function of the kernel —
   never of the domain count or the epoch length. *)
let test_gpusim_epoch_domain_invariance =
  QCheck.Test.make ~name:"gpusim stats independent of (domains, epoch)"
    ~count:30
    (QCheck.make
       QCheck.Gen.(triple gen_kernel (int_range 1 6) (int_range 1 200)))
    (fun (k, domains, epoch) ->
      let serial = Gpusim.run ~config:tiny k in
      let par = Gpusim.run ~config:tiny ~domains ~epoch k in
      serial = par)

let test_gpusim_epoch_extremes () =
  let k =
    Warp_trace.of_entries ~warp_size:32
      (Array.init 6 (fun warp_id ->
           ( warp_id,
             Array.init 80 (fun i ->
                 if i mod 4 = 0 then
                   entry (load_op (Array.init 32 (fun l -> (warp_id * 32768) + (i * 512) + (64 * l))))
                 else entry alu_op) )))
  in
  let base = Gpusim.run ~config:tiny k in
  List.iter
    (fun (domains, epoch) ->
      check_stats_equal
        (Printf.sprintf "j%d epoch=%d" domains epoch)
        base
        (Gpusim.run ~config:tiny ~domains ~epoch k))
    [ (1, 1); (4, 1); (4, 3); (2, 100_000); (8, Gpusim.default_epoch) ]

let test_gpusim_empty_kernel () =
  let k = Warp_trace.of_entries ~warp_size:32 [||] in
  List.iter
    (fun domains ->
      let s = Gpusim.run ~config:tiny ~domains k in
      Alcotest.(check int) "no cycles" 0 s.Gpusim.cycles;
      Alcotest.(check int) "no instrs" 0 s.Gpusim.instructions)
    [ 1; 4 ]

(* -- cpusim --------------------------------------------------------------- *)

let cpu_traces n =
  let prog = Program.assemble [ vec_worker ] in
  let m = Machine.create prog in
  (Machine.run_workers m ~worker:"worker" ~args:(Array.init n (fun i -> [ i ])))
    .Machine.traces

let test_cpusim_cycle_accounting () =
  (* hand-computed: one thread on one core, cold caches *)
  let module Event = Threadfuser_trace.Event in
  let module TT = Threadfuser_trace.Thread_trace in
  let trace =
    TT.of_events 0
        [|
          Event.Block
            {
              func = 0;
              block = 0;
              n_instr = 10;
              accesses = [| { Event.ioff = 0; addr = 0x20000; size = 8; is_store = false } |];
            };
          Event.Skip { reason = Event.Io; n_instr = 5 };
          Event.Lock_acq 1;
          Event.Lock_rel 1;
          Event.Barrier 2;
          Event.Call 1;
          Event.Return;
          Event.Block { func = 0; block = 1; n_instr = 3; accesses = [||] };
        |]
  in
  let cfg = { Cpusim.default_config with Cpusim.n_cores = 1 } in
  let s = Cpusim.run ~config:cfg [| trace |] in
  (* 10 instrs + cold miss (12 + 180) + 5 skip + 2x20 locks + 40 barrier
     + 2 + 2 call/ret + 3 instrs *)
  Alcotest.(check int) "cycles" (10 + 12 + 180 + 5 + 40 + 40 + 4 + 3) s.Cpusim.cycles;
  Alcotest.(check int) "instructions" 13 s.Cpusim.instructions

let test_cpusim_cache_reuse () =
  let module Event = Threadfuser_trace.Event in
  let module TT = Threadfuser_trace.Thread_trace in
  let block k =
    Event.Block
      {
        func = 0;
        block = k;
        n_instr = 1;
        accesses = [| { Event.ioff = 0; addr = 0x20000; size = 8; is_store = false } |];
      }
  in
  let trace = TT.of_events 0 [| block 0; block 1 |] in
  let cfg = { Cpusim.default_config with Cpusim.n_cores = 1 } in
  let s = Cpusim.run ~config:cfg [| trace |] in
  (* first access misses both levels, second hits L1 *)
  Alcotest.(check int) "cycles" (1 + 12 + 180 + 1) s.Cpusim.cycles;
  Alcotest.(check bool) "l1 reuse visible" true (s.Cpusim.l1_hit_rate > 0.4)

let test_cpusim_scales_with_threads () =
  let cfg = { Cpusim.default_config with n_cores = 4 } in
  let s8 = Cpusim.run ~config:cfg (cpu_traces 8) in
  let s64 = Cpusim.run ~config:cfg (cpu_traces 64) in
  Alcotest.(check bool) "more threads, more cycles" true
    (s64.Cpusim.cycles > s8.Cpusim.cycles)

let test_cpusim_uses_all_cores () =
  let cfg = { Cpusim.default_config with n_cores = 4 } in
  let s = Cpusim.run ~config:cfg (cpu_traces 8) in
  Array.iter
    (fun c -> Alcotest.(check bool) "core busy" true (c > 0))
    s.Cpusim.core_cycles;
  Alcotest.(check bool) "cycles = max core" true
    (s.Cpusim.cycles = Array.fold_left max 0 s.Cpusim.core_cycles)

let test_cpusim_domain_invariance () =
  let traces = cpu_traces 32 in
  List.iter
    (fun n_cores ->
      let cfg = { Cpusim.default_config with Cpusim.n_cores } in
      let base = Cpusim.run ~config:cfg traces in
      List.iter
        (fun domains ->
          let s = Cpusim.run ~config:cfg ~domains traces in
          Alcotest.(check bool)
            (Printf.sprintf "cores=%d j%d identical" n_cores domains)
            true (s = base))
        [ 2; 5; 8 ])
    [ 1; 3; 4; 20 ]

let () =
  Alcotest.run "gpusim"
    [
      ( "cache",
        [
          Alcotest.test_case "hit after miss" `Quick test_cache_hit_after_miss;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "bigger is better" `Quick test_cache_bigger_is_better;
          QCheck_alcotest.to_alcotest test_cache_fast_path_matches_reference;
        ] );
      ( "dram",
        [ Alcotest.test_case "latency and bandwidth" `Quick test_dram_latency_and_bandwidth ] );
      ( "pipeline",
        [
          Alcotest.test_case "dependent chain" `Quick test_dependent_chain_slower;
          Alcotest.test_case "divergent loads" `Quick test_divergent_loads_slower;
          Alcotest.test_case "sm scaling" `Quick test_more_warps_scale;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "schedulers" `Quick test_lrr_vs_gto_both_finish;
          Alcotest.test_case "end to end" `Quick test_end_to_end_pipeline;
          Alcotest.test_case "stall attribution" `Quick test_stall_attribution;
          Alcotest.test_case "stats line spacing" `Quick test_pp_stats_spacing;
          Alcotest.test_case "lane consistency" `Quick
            test_analyzer_gpusim_lane_consistency;
        ] );
      ( "parallel",
        [
          QCheck_alcotest.to_alcotest test_gpusim_epoch_domain_invariance;
          Alcotest.test_case "epoch extremes" `Quick test_gpusim_epoch_extremes;
          Alcotest.test_case "empty kernel" `Quick test_gpusim_empty_kernel;
        ] );
      ( "cpusim",
        [
          Alcotest.test_case "cycle accounting" `Quick test_cpusim_cycle_accounting;
          Alcotest.test_case "cache reuse" `Quick test_cpusim_cache_reuse;
          Alcotest.test_case "thread scaling" `Quick test_cpusim_scales_with_threads;
          Alcotest.test_case "core usage" `Quick test_cpusim_uses_all_cores;
          Alcotest.test_case "domain invariance" `Quick
            test_cpusim_domain_invariance;
        ] );
    ]
