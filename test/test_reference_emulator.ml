(* Differential testing of the warp emulator against an independently
   written reference implementation of the same SIMT-stack semantics.

   The production emulator (lib/core/emulator.ml) uses an explicit mutable
   stack with in-place mask updates, scalar critical-section replay and
   fused bookkeeping.  The reference below is a direct structural
   recursion: "run these lanes from their current positions until each
   reaches [reconv]", recomputing groups functionally at every step.  It
   walks the traces itself (no [Cursor]) and counts issues, thread
   instructions and, per [(func, block, ioff)] site, warp-level memory
   instructions and their 32 B transactions from a sorted unique list of
   line ids (no [Coalesce]).  Agreement on all three across randomly
   generated divergent programs — including bucketed-lock critical
   sections and calls — and across real Table I workloads gives high
   confidence in the production bookkeeping. *)

open Threadfuser_isa
open Threadfuser_prog
open Threadfuser
module Machine = Threadfuser_machine.Machine
module Memory = Threadfuser_machine.Memory
module Dcfg = Threadfuser_cfg.Dcfg
module Ipdom = Threadfuser_cfg.Ipdom
module Lcg = Threadfuser_util.Lcg
module Event = Threadfuser_trace.Event
module Layout = Threadfuser_machine.Layout

(* ---- the reference: recursive region execution ------------------------- *)

exception Reference_stuck of string

(* The reference reads traces on its own: a lane is an index into its
   event array, [Skip] events are stepped over, and the next control item
   is recomputed from scratch every time it is asked for. *)
type control =
  | Blk of int * int * Event.access array (* func, block, accesses *)
  | Call of int (* callee *)
  | Ret
  | Lock of int
  | Unlock of int
  | Bar
  | End

type lane = { events : Event.t array; mutable at : int }

let rec control l =
  if l.at >= Array.length l.events then End
  else
    match l.events.(l.at) with
    | Event.Skip _ ->
        l.at <- l.at + 1;
        control l
    | Event.Block { func; block; accesses; _ } -> Blk (func, block, accesses)
    | Event.Call f -> Call f
    | Event.Return -> Ret
    | Event.Lock_acq a -> Lock a
    | Event.Lock_rel a -> Unlock a
    | Event.Barrier _ -> Bar

(* consume the control item [control] returns *)
let take l =
  let c = control l in
  if c <> End then l.at <- l.at + 1;
  c

(* Naive coalescing of one site's accesses: per load/store and per address
   segment, the sorted unique list of 32 B line ids the accesses touch;
   the site issues one instruction per load/store kind present. *)
type site_count = { mutable s_issues : int; mutable s_txns : int }

let naive_coalesce sites key (accesses : Event.access list) =
  List.iter
    (fun is_store ->
      let mine = List.filter (fun (a : Event.access) -> a.Event.is_store = is_store) accesses in
      if mine <> [] then begin
        let c =
          match Hashtbl.find_opt sites key with
          | Some c -> c
          | None ->
              let c = { s_issues = 0; s_txns = 0 } in
              Hashtbl.add sites key c;
              c
        in
        c.s_issues <- c.s_issues + 1;
        List.iter
          (fun segment ->
            let lines =
              List.concat_map
                (fun (a : Event.access) ->
                  if Layout.segment_of a.Event.addr <> segment then []
                  else
                    let first = a.Event.addr / 32
                    and last = (a.Event.addr + max 1 a.Event.size - 1) / 32 in
                    List.init (last - first + 1) (fun i -> first + i))
                mine
              |> List.sort_uniq compare
            in
            c.s_txns <- c.s_txns + List.length lines)
          [ Layout.Stack; Layout.Heap; Layout.Global ]
      end)
    [ false; true ]

(* [(issues, thread instructions, per-site counts)] of one warp's
   replay; [sites] accumulates across calls, keyed [(func, block, ioff)]. *)
let reference_counts ?(sites = Hashtbl.create 16) prog ipdoms
    (traces : Threadfuser_trace.Thread_trace.t array) tids =
  let lanes =
    Array.map
      (fun tid ->
        (* the boxed view: the oracle never reads the trace columns *)
        { events = Threadfuser_trace.Thread_trace.to_events traces.(tid); at = 0 })
      tids
  in
  let issues = ref 0 and instrs = ref 0 in
  let exit_node fid =
    Array.length (Program.func prog fid).Program.blocks
  in
  let block_len fid bid =
    Array.length (Program.func prog fid).Program.blocks.(bid).Program.instrs
  in
  (* one lock-step execution of a block by [ls]: issue and instruction
     counts, then every instruction's accesses coalesced at its site *)
  let execute func block ls =
    let n = block_len func block in
    issues := !issues + n;
    instrs := !instrs + (n * List.length ls);
    let accs =
      List.concat_map
        (fun l ->
          match take lanes.(l) with
          | Blk (_, _, a) -> Array.to_list a
          | _ -> raise (Reference_stuck "expected a block"))
        ls
    in
    for ioff = 0 to n - 1 do
      naive_coalesce sites (func, block, ioff)
        (List.filter (fun (a : Event.access) -> a.Event.ioff = ioff) accs)
    done
  in
  (* current node of a lane within [func]: its next block, or the exit *)
  let node_of func lane =
    match control lanes.(lane) with
    | Blk (f, block, _) when f = func -> block
    | Ret | End -> exit_node func
    | Call _ -> -2 (* handled by the caller *)
    | _ -> raise (Reference_stuck "unexpected control at node_of")
  in
  (* scalar replay of one lane's critical section, counting one-lane
     issues, until the matching unlock *)
  let rec scalar_cs lane addr =
    match control lanes.(lane) with
    | Blk (func, block, _) ->
        execute func block [ lane ];
        scalar_cs lane addr
    | Call _ | Ret | Lock _ | Bar ->
        ignore (take lanes.(lane));
        scalar_cs lane addr
    | Unlock a ->
        ignore (take lanes.(lane));
        if a = addr then () else scalar_cs lane addr
    | End -> raise (Reference_stuck "trace ended inside CS")
  in
  (* consume the uniform follow-up item [expect] from every lane *)
  let consume lanes_ expect what =
    List.iter
      (fun l -> if not (expect (take lanes.(l))) then raise (Reference_stuck what))
      lanes_
  in
  (* run [lanes] (all at the same node of [func]) until they reach
     [reconv]; lanes move strictly forward through their traces *)
  let rec run_region func ls reconv =
    match ls with
    | [] -> ()
    | lane0 :: _ -> (
        let here = node_of func lane0 in
        if here = reconv then ()
        else begin
          (* every lane must agree (they are in lockstep at this node) *)
          List.iter
            (fun l ->
              if node_of func l <> here then
                raise (Reference_stuck "lanes disagree at region head"))
            ls;
          if here = exit_node func then
            raise (Reference_stuck "reached exit before reconv")
          else begin
            execute func here ls;
            (* follow-up control, uniform by construction *)
            match control lanes.(List.hd ls) with
            | Lock _ ->
                (* consume the acquires; serialize same-lock groups *)
                let addrs =
                  List.map
                    (fun l ->
                      match take lanes.(l) with
                      | Lock a -> (l, a)
                      | _ -> raise (Reference_stuck "expected lock"))
                    ls
                in
                let by_addr =
                  List.sort_uniq compare (List.map snd addrs)
                  |> List.map (fun a ->
                         (a, List.filter_map (fun (l, a') -> if a' = a then Some l else None) addrs))
                in
                List.iter
                  (fun (a, group) ->
                    if List.length group > 1 then
                      List.iter (fun l -> scalar_cs l a) group)
                  by_addr;
                continue_after func ls reconv
            | Unlock _ ->
                consume ls (function Unlock _ -> true | _ -> false) "expected unlock";
                continue_after func ls reconv
            | Bar ->
                consume ls (( = ) Bar) "expected barrier";
                continue_after func ls reconv
            | Call callee ->
                consume ls (( = ) (Call callee)) "expected call";
                run_region callee ls (exit_node callee);
                consume ls (( = ) Ret) "expected return";
                continue_after func ls reconv
            | _ -> continue_after func ls reconv
          end
        end)
  and continue_after func ls reconv =
    (* group lanes by their next node and recurse per group *)
    let targets = List.map (fun l -> (l, node_of func l)) ls in
    let distinct = List.sort_uniq compare (List.map snd targets) in
    match distinct with
    | [ _ ] -> run_region func ls reconv
    | many ->
        let tbl = ipdoms.(func) in
        let r =
          List.fold_left (Ipdom.nearest_common_post_dominator tbl)
            (List.hd many) (List.tl many)
        in
        let r =
          if r = reconv then r
          else if Ipdom.post_dominates tbl r reconv then reconv
          else r
        in
        List.iter
          (fun target ->
            if target <> r then
              run_region func
                (List.filter_map
                   (fun (l, t) -> if t = target then Some l else None)
                   targets)
                r)
          (List.sort compare many);
        run_region func ls reconv
  in
  (match control lanes.(0) with
  | Blk (func, _, _) ->
      run_region func (List.init (Array.length tids) Fun.id) (exit_node func)
  | _ -> raise (Reference_stuck "empty trace"));
  (!issues, !instrs)

(* The production emulator's site table, restricted to the sites it
   touched, against the reference's naive one. *)
let sites_agree prog ipdoms traces warps ref_sites ~warp_size =
  let emu =
    Emulator.create prog ipdoms
      {
        Emulator.warp_size;
        sync = Emulator.Serialize;
        reconv = Emulator.Ipdom_reconv;
        record_timeline = false;
      }
  in
  Array.iteri
    (fun warp_id tids ->
      Emulator.run_warp emu ~warp_id
        (Array.map (fun tid -> Cursor.of_trace traces.(tid)) tids))
    warps;
  let production = ref [] in
  Coalesce.iter_sites emu.Emulator.coalesce (fun ~fid ~block ~ioff c ->
      if c.Coalesce.a_issues > 0 then
        production :=
          ((fid, block, ioff), (c.Coalesce.a_issues, c.Coalesce.a_txns))
          :: !production);
  let reference =
    Hashtbl.fold (fun k c acc -> (k, (c.s_issues, c.s_txns)) :: acc) ref_sites []
  in
  List.sort compare !production = List.sort compare reference

(* ---- generator: divergent programs with calls and bucketed locks ------- *)

let data_region = 0x20000

let rec gen_stmt g depth : Build.code =
  let open Build in
  let vr () = 1 + Lcg.int g 5 in
  match Lcg.int g (if depth >= 3 then 4 else 8) with
  | 0 | 1 -> add (reg (vr ())) (imm (Lcg.int g 50))
  | 2 ->
      seq
        [
          mov (reg 13) (reg (vr ()));
          and_ (reg 13) (imm 511);
          (if Lcg.chance g 1 3 then
             mov (mem ~scale:8 ~index:13 ~disp:data_region ()) (reg (vr ()))
           else mov (reg (vr ())) (mem ~scale:8 ~index:13 ~disp:data_region ()));
        ]
  | 3 ->
      if Lcg.chance g 1 3 then
        (* fine-grained bucketed lock around a small critical section *)
        seq
          [
            mov (reg 11) (reg (vr ()));
            and_ (reg 11) (imm 3);
            shl (reg 11) (imm 6);
            add (reg 11) (imm 0xd00);
            lock_acquire (reg 11);
            add (reg (vr ())) (imm 1);
            lock_release (reg 11);
          ]
      else xor (reg (vr ())) (reg (vr ()))
  | 4 | 5 ->
      let c =
        match Lcg.int g 4 with
        | 0 -> Cond.Lt
        | 1 -> Cond.Ge
        | 2 -> Cond.Eq
        | _ -> Cond.Ne
      in
      if_ c (reg (vr ())) (imm (Lcg.int g 40))
        ~then_:(gen_body g (depth + 1))
        ?else_:(if Lcg.chance g 1 2 then Some (gen_body g (depth + 1)) else None)
        ()
  | _ ->
      seq
        [
          mov (reg 12) (reg (vr ()));
          and_ (reg 12) (imm 5);
          for_up ~i:(6 + depth) ~from_:(imm 0) ~below:(reg 12)
            (gen_body g (depth + 1));
        ]

and gen_body g depth : Build.code list =
  List.init (1 + Lcg.int g 2) (fun _ -> gen_stmt g depth)

let make_callee g =
  Build.func "callee" (gen_body g 1 @ [ Build.ret ])

let gen_program seed =
  let g = Lcg.create seed in
  let body =
    Build.(
      [
        mov (reg 1) (reg 0);
        mov (reg 2) (mem ~scale:8 ~index:0 ~disp:data_region ());
        mov (reg 3) (reg 0);
        mul (reg 3) (imm 40503);
        mov (reg 4) (imm 3);
        mov (reg 5) (reg 2);
      ]
      @ gen_body g 0
      @ [ (if Lcg.chance g 1 2 then call "callee" else seq []) ]
      @ gen_body g 0
      @ [ ret ])
  in
  Program.assemble [ Build.func "worker" body; make_callee g ]

let trace_one seed ~threads =
  let prog = gen_program seed in
  let m =
    Machine.create ~config:{ Machine.default_config with quantum = 1 } prog
  in
  let g = Lcg.create (seed * 7 + 1) in
  for i = 0 to 511 do
    Memory.store_i64 (Machine.memory m) (data_region + (8 * i)) (Lcg.int g 80)
  done;
  let r =
    Machine.run_workers m ~worker:"worker" ~args:(Array.init threads (fun i -> [ i ]))
  in
  (prog, r.Machine.traces)

(* ---- the differential property ----------------------------------------- *)

let compare_once seed threads warp_size =
  let prog, traces = trace_one seed ~threads in
  let dcfgs = Dcfg.of_traces prog traces in
  let ipdoms = Ipdom.of_dcfgs dcfgs in
  let production =
    (Analyzer.analyze ~options:{ Analyzer.default_options with warp_size } prog
       traces)
      .Analyzer.report
  in
  (* reference, warp by warp (sequential batching) *)
  let warps = Batching.form Batching.Sequential ~warp_size traces in
  let ref_issues = ref 0 and ref_instrs = ref 0 and sites = Hashtbl.create 16 in
  Array.iter
    (fun tids ->
      let i, n = reference_counts ~sites prog ipdoms traces tids in
      ref_issues := !ref_issues + i;
      ref_instrs := !ref_instrs + n)
    warps;
  ( production.Metrics.issues,
    production.Metrics.thread_instrs,
    !ref_issues,
    !ref_instrs,
    sites_agree prog ipdoms traces warps sites ~warp_size )

let prop_reference_agreement =
  QCheck.Test.make ~name:"production emulator = recursive reference" ~count:120
    QCheck.(triple small_int (int_range 1 16) (int_range 1 3))
    (fun (seed, threads, wexp) ->
      let warp_size = 1 lsl wexp in
      let pi, pn, ri, rn, sites = compare_once seed threads warp_size in
      pi = ri && pn = rn && sites)

let test_reference_on_workloads () =
  (* lock-free Table I workloads must agree too *)
  List.iter
    (fun name ->
      let w = Threadfuser_workloads.Registry.find name in
      let tr = Threadfuser_workloads.Workload.trace_cpu ~threads:32 w in
      let dcfgs = Dcfg.of_traces tr.Threadfuser_workloads.Workload.prog
          tr.Threadfuser_workloads.Workload.traces in
      let ipdoms = Ipdom.of_dcfgs dcfgs in
      let production =
        (Analyzer.analyze
           ~options:{ Analyzer.default_options with warp_size = 8 }
           tr.Threadfuser_workloads.Workload.prog
           tr.Threadfuser_workloads.Workload.traces)
          .Analyzer.report
      in
      let warps =
        Batching.form Batching.Sequential ~warp_size:8
          tr.Threadfuser_workloads.Workload.traces
      in
      let ri = ref 0 and rn = ref 0 and sites = Hashtbl.create 64 in
      Array.iter
        (fun tids ->
          let i, n =
            reference_counts ~sites tr.Threadfuser_workloads.Workload.prog ipdoms
              tr.Threadfuser_workloads.Workload.traces tids
          in
          ri := !ri + i;
          rn := !rn + n)
        warps;
      Alcotest.(check int) (name ^ " issues") production.Metrics.issues !ri;
      Alcotest.(check int) (name ^ " instrs") production.Metrics.thread_instrs !rn;
      Alcotest.(check bool) (name ^ " coalescing sites") true
        (sites_agree tr.Threadfuser_workloads.Workload.prog ipdoms
           tr.Threadfuser_workloads.Workload.traces warps sites ~warp_size:8))
    [ "bfs"; "b+tree"; "particlefilter"; "blackscholes"; "freqmine"; "x264";
      "urlshort"; "fluidanimate" ]

let () =
  Alcotest.run "reference_emulator"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_reference_agreement;
          Alcotest.test_case "workload agreement" `Slow test_reference_on_workloads;
        ] );
    ]
