(* Tests for dynamic CFG construction, dominators and IPDOM analysis. *)

open Threadfuser_isa
open Threadfuser_prog
module Machine = Threadfuser_machine.Machine
module Dcfg = Threadfuser_cfg.Dcfg
module Ipdom = Threadfuser_cfg.Ipdom
module Dominators = Threadfuser_cfg.Dominators

(* -- Dominators vs brute force ------------------------------------------ *)

(* Brute-force dominator sets by dataflow iteration. *)
let brute_dom_sets ~n ~entry ~succs =
  let full = List.init n (fun i -> i) in
  let doms = Array.make n full in
  doms.(entry) <- [ entry ];
  let preds = Array.make n [] in
  for v = 0 to n - 1 do
    List.iter (fun s -> preds.(s) <- v :: preds.(s)) (succs v)
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    for v = 0 to n - 1 do
      if v <> entry then begin
        let inter =
          match preds.(v) with
          | [] -> full
          | p :: ps ->
              List.fold_left
                (fun acc q -> List.filter (fun x -> List.mem x doms.(q)) acc)
                doms.(p) ps
        in
        let next = v :: List.filter (fun x -> x <> v) inter in
        if List.sort compare next <> List.sort compare doms.(v) then begin
          doms.(v) <- next;
          changed := true
        end
      end
    done
  done;
  doms

(* idom from dominator sets: the strict dominator dominated by all other
   strict dominators. *)
let brute_idom dom_sets v =
  let strict = List.filter (fun x -> x <> v) dom_sets.(v) in
  List.find_opt
    (fun u -> List.for_all (fun w -> List.mem w dom_sets.(u)) strict)
    strict

(* Random graph where node 0 is entry and every node is reachable: a spine
   0->1->...->n-1 plus random extra edges. *)
let gen_graph =
  let open QCheck.Gen in
  let* n = int_range 2 12 in
  let* extra =
    list_size (int_bound (2 * n))
      (let* a = int_bound (n - 1) in
       let* b = int_bound (n - 1) in
       return (a, b))
  in
  let succs = Array.make n [] in
  for i = 0 to n - 2 do
    succs.(i) <- [ i + 1 ]
  done;
  List.iter
    (fun (a, b) -> if not (List.mem b succs.(a)) then succs.(a) <- b :: succs.(a))
    extra;
  return (n, Array.map (List.sort compare) succs)

let prop_idom_matches_brute_force =
  QCheck.Test.make ~name:"CHK idom = brute-force idom" ~count:300
    (QCheck.make gen_graph) (fun (n, succs) ->
      let preds = Array.make n [] in
      Array.iteri (fun v ss -> List.iter (fun s -> preds.(s) <- v :: preds.(s)) ss) succs;
      let d =
        Dominators.compute ~n ~entry:0
          ~succs:(fun v -> succs.(v))
          ~preds:(fun v -> preds.(v))
      in
      let sets = brute_dom_sets ~n ~entry:0 ~succs:(fun v -> succs.(v)) in
      let ok = ref true in
      for v = 1 to n - 1 do
        let expect = brute_idom sets v in
        let got = if d.Dominators.idom.(v) < 0 then None else Some d.Dominators.idom.(v) in
        (* every node is reachable here, so idom must exist *)
        if got <> expect then ok := false
      done;
      !ok)

let prop_entry_self_idom =
  QCheck.Test.make ~name:"entry is its own idom" ~count:100
    (QCheck.make gen_graph) (fun (n, succs) ->
      let preds = Array.make n [] in
      Array.iteri (fun v ss -> List.iter (fun s -> preds.(s) <- v :: preds.(s)) ss) succs;
      let d =
        Dominators.compute ~n ~entry:0
          ~succs:(fun v -> succs.(v))
          ~preds:(fun v -> preds.(v))
      in
      d.Dominators.idom.(0) = 0)

(* -- DCFG from traces ---------------------------------------------------- *)

(* worker: diverge on arg parity, then reconverge and return *)
let diamond_worker =
  Build.(
    func "worker"
      [
        mov (reg 1) (reg 0);
        and_ (reg 1) (imm 1);
        if_ Cond.Eq (reg 1) (imm 0)
          ~then_:[ mov (reg 2) (imm 10) ]
          ~else_:[ mov (reg 2) (imm 20) ]
          ();
        ret;
      ])

let run_diamond n =
  let prog = Program.assemble [ diamond_worker ] in
  let m = Machine.create prog in
  let r =
    Machine.run_workers m ~worker:"worker" ~args:(Array.init n (fun i -> [ i ]))
  in
  (prog, r.Machine.traces)

let test_dcfg_diamond_edges () =
  let prog, traces = run_diamond 2 in
  let dcfgs = Dcfg.of_traces prog traces in
  let g = dcfgs.(0) in
  (* blocks: 0 cond, 1 then, 2 else, 3 join(ret); exit = 4 *)
  Alcotest.(check int) "n_blocks" 4 g.Dcfg.n_blocks;
  let sorted l = List.sort compare l in
  Alcotest.(check (list int)) "cond succs" [ 1; 2 ] (sorted g.Dcfg.succs.(0));
  Alcotest.(check (list int)) "then succs" [ 3 ] (sorted g.Dcfg.succs.(1));
  Alcotest.(check (list int)) "else succs" [ 3 ] (sorted g.Dcfg.succs.(2));
  Alcotest.(check (list int)) "join to exit" [ 4 ] (sorted g.Dcfg.succs.(3))

let test_dcfg_one_thread_partial () =
  (* with a single even thread, only the then-path is observed *)
  let prog, traces = run_diamond 1 in
  let g = (Dcfg.of_traces prog traces).(0) in
  Alcotest.(check (list int)) "only then edge" [ 1 ] (List.sort compare g.Dcfg.succs.(0));
  Alcotest.(check bool) "else unobserved" false g.Dcfg.observed.(2)

let test_ipdom_diamond () =
  let prog, traces = run_diamond 4 in
  let dcfgs = Dcfg.of_traces prog traces in
  let ip = Ipdom.compute dcfgs.(0) in
  Alcotest.(check int) "reconvergence of cond is join" 3
    (Ipdom.reconvergence_point ip 0);
  Alcotest.(check int) "join reconverges at exit" 4
    (Ipdom.reconvergence_point ip 3);
  Alcotest.(check bool) "join postdominates cond" true (Ipdom.post_dominates ip 3 0);
  Alcotest.(check bool) "then does not postdominate cond" false
    (Ipdom.post_dominates ip 1 0)

let test_ipdom_loop () =
  (* while loop: divergence at the loop head reconverges at loop exit *)
  let worker =
    Build.(
      func "worker"
        [
          mov (reg 1) (imm 0);
          while_ Cond.Lt (reg 1) (reg 0) [ add (reg 1) (imm 1) ];
          ret;
        ])
  in
  let prog = Program.assemble [ worker ] in
  let m = Machine.create prog in
  let r =
    Machine.run_workers m ~worker:"worker"
      ~args:[| [ 0 ]; [ 1 ]; [ 3 ]; [ 7 ] |]
  in
  let dcfgs = Dcfg.of_traces prog r.Machine.traces in
  let ip = Ipdom.compute dcfgs.(0) in
  (* blocks: 0 [mov] 1 head[cmp;jcc] 2 body[add;jmp] 3 [ret] *)
  Alcotest.(check int) "head reconv" 3 (Ipdom.reconvergence_point ip 1);
  Alcotest.(check int) "body reconv" 1 (Ipdom.reconvergence_point ip 2)

let test_call_boundaries_per_function () =
  (* callee's blocks must not leak into the caller's DCFG *)
  let prog =
    Program.assemble
      [
        Build.func "leaf" Build.[ mov (reg 2) (imm 1); ret ];
        Build.func "root" Build.[ call "leaf"; mov (reg 3) (imm 2); ret ];
      ]
  in
  let m = Machine.create prog in
  let r = Machine.run_workers m ~worker:"root" ~args:[| [] |] in
  let dcfgs = Dcfg.of_traces prog r.Machine.traces in
  let root = Program.find_func prog "root" and leaf = Program.find_func prog "leaf" in
  (* root: b0 [call] -> b1 [mov; ret] -> exit *)
  Alcotest.(check (list int)) "call falls to continuation" [ 1 ]
    (List.sort compare dcfgs.(root).Dcfg.succs.(0));
  Alcotest.(check (list int)) "leaf body to exit" [ 1 ]
    (List.sort compare dcfgs.(leaf).Dcfg.succs.(0))

(* -- DCFG edge order ------------------------------------------------------ *)

module Event = Threadfuser_trace.Event
module Thread_trace = Threadfuser_trace.Thread_trace

(* The builder as it was before its edge table was gated by a seen-edge
   check: every sighting of an edge goes to the Hashtbl.  IPDOM and the
   reports read succs/preds in list order, so the gated builder must
   produce the very same lists, order included. *)
module Plain_builder = struct
  type func_acc = {
    fid : int;
    nb : int;
    edges : (int, unit) Hashtbl.t;
    seen : bool array;
  }

  type t = { prog : Program.t; funcs : (int, func_acc) Hashtbl.t }

  let create prog = { prog; funcs = Hashtbl.create 32 }

  let acc t fid =
    match Hashtbl.find_opt t.funcs fid with
    | Some a -> a
    | None ->
        let nb = Program.block_count (Program.func t.prog fid) in
        let a =
          { fid; nb; edges = Hashtbl.create 64; seen = Array.make (nb + 1) false }
        in
        Hashtbl.add t.funcs fid a;
        a

  let add_edge a from_ to_ = Hashtbl.replace a.edges ((from_ * (a.nb + 1)) + to_) ()

  type frame = { facc : func_acc; mutable last : int }

  let feed t (trace : Thread_trace.t) =
    let stack = ref [] in
    let enter fid = stack := { facc = acc t fid; last = -1 } :: !stack in
    let leave () =
      match !stack with
      | [] -> ()
      | fr :: rest ->
          if fr.last >= 0 then begin
            add_edge fr.facc fr.last fr.facc.nb;
            fr.facc.seen.(fr.facc.nb) <- true
          end;
          stack := rest
    in
    Array.iter
      (fun (e : Event.t) ->
        match e with
        | Event.Block { func; block; _ } ->
            (match !stack with
            | fr :: _ when fr.facc.fid = func -> ()
            | _ -> enter func);
            let fr = List.hd !stack in
            fr.facc.seen.(block) <- true;
            if fr.last >= 0 then add_edge fr.facc fr.last block;
            fr.last <- block
        | Event.Call callee -> enter callee
        | Event.Return -> leave ()
        | Event.Lock_acq _ | Event.Lock_rel _ | Event.Barrier _ | Event.Skip _ ->
            ())
      trace.Thread_trace.events;
    while !stack <> [] do
      leave ()
    done

  let finish t =
    Array.init (Program.func_count t.prog) (fun fid ->
        let nb = Program.block_count (Program.func t.prog fid) in
        let n = nb + 1 in
        let succs = Array.make n [] and preds = Array.make n [] in
        let seen =
          match Hashtbl.find_opt t.funcs fid with
          | None -> Array.make n false
          | Some a ->
              Hashtbl.iter
                (fun key () ->
                  let from_ = key / n and to_ = key mod n in
                  succs.(from_) <- to_ :: succs.(from_);
                  preds.(to_) <- from_ :: preds.(to_))
                a.edges;
              a.seen
        in
        {
          Dcfg.func = fid;
          n_blocks = nb;
          exit_node = nb;
          succs;
          preds;
          observed = seen;
        })

  let of_traces prog traces =
    let b = create prog in
    Array.iter (feed b) traces;
    finish b
end

let same_dcfgs prog traces =
  Plain_builder.of_traces prog traces = Dcfg.of_traces prog traces

(* A mini-ISA program with many blocks per function (each [if_] adds a
   few), for random traces to wander through. *)
let wide_program =
  lazy
    (let open Build in
     let body k =
       List.init k (fun i ->
           if_ Cond.Lt (reg 1) (imm i) ~then_:[ add (reg 1) (imm 1) ] ())
       @ [ ret ]
     in
     Program.assemble [ func "f0" (body 9); func "f1" (body 4); func "f2" (body 1) ])

(* Random traces: block ids anywhere in the current function (so blocks
   reach many distinct successors, in any order), calls and returns in
   any nesting, plus events the builder ignores. *)
let gen_traces =
  let open QCheck.Gen in
  let prog = Lazy.force wide_program in
  let nb f = Program.block_count (Program.func prog f) in
  let event =
    frequency
      [
        ( 12,
          let* func = int_bound 2 in
          let* block = int_bound (nb func - 1) in
          return (Event.Block { func; block; n_instr = 1; accesses = Event.no_accesses }) );
        (2, map (fun f -> Event.Call f) (int_bound 2));
        (2, return Event.Return);
        (1, return (Event.Skip { reason = Event.Io; n_instr = 3 }));
        (1, map (fun a -> Event.Lock_acq a) (int_bound 4));
      ]
  in
  list_size (int_range 1 6)
    (map
       (fun evs -> { Thread_trace.tid = 0; events = Array.of_list evs })
       (list_size (int_range 0 200) event))
  |> map Array.of_list

let prop_dcfg_order_random =
  QCheck.Test.make ~name:"gated DCFG = plain builder, list order included"
    ~count:300 (QCheck.make gen_traces) (fun traces ->
      same_dcfgs (Lazy.force wide_program) traces)

let test_dcfg_order_workloads () =
  List.iter
    (fun (w : Threadfuser_workloads.Workload.t) ->
      let tr = Threadfuser_workloads.Workload.trace_cpu ~threads:8 w in
      Alcotest.(check bool)
        (w.Threadfuser_workloads.Workload.name ^ " DCFG lists")
        true
        (same_dcfgs tr.Threadfuser_workloads.Workload.prog
           tr.Threadfuser_workloads.Workload.traces))
    Threadfuser_workloads.Registry.all

let () =
  Alcotest.run "cfg"
    [
      ( "dominators",
        [
          QCheck_alcotest.to_alcotest prop_idom_matches_brute_force;
          QCheck_alcotest.to_alcotest prop_entry_self_idom;
        ] );
      ( "dcfg",
        [
          Alcotest.test_case "diamond edges" `Quick test_dcfg_diamond_edges;
          Alcotest.test_case "partial observation" `Quick test_dcfg_one_thread_partial;
          Alcotest.test_case "call boundaries" `Quick test_call_boundaries_per_function;
          QCheck_alcotest.to_alcotest prop_dcfg_order_random;
          Alcotest.test_case "edge order on every workload" `Quick
            test_dcfg_order_workloads;
        ] );
      ( "ipdom",
        [
          Alcotest.test_case "diamond" `Quick test_ipdom_diamond;
          Alcotest.test_case "loop" `Quick test_ipdom_loop;
        ] );
    ]
