(* Direct unit and property tests for the analyzer's building blocks:
   masks, the coalescer, CISC->RISC cracking, trace cursors, and the
   nearest-common-post-dominator reconvergence logic. *)

open Threadfuser
open Threadfuser_isa
module Event = Threadfuser_trace.Event
module Thread_trace = Threadfuser_trace.Thread_trace
module Layout = Threadfuser_machine.Layout
module Program = Threadfuser_prog.Program
module Dcfg = Threadfuser_cfg.Dcfg
module Ipdom = Threadfuser_cfg.Ipdom

(* -- masks ---------------------------------------------------------------- *)

let test_mask_basics () =
  let m = Mask.full 8 in
  Alcotest.(check int) "count full" 8 (Mask.count m);
  Alcotest.(check bool) "mem" true (Mask.mem m 7);
  Alcotest.(check bool) "not mem" false (Mask.mem m 8);
  let m = Mask.remove m 3 in
  Alcotest.(check int) "after remove" 7 (Mask.count m);
  Alcotest.(check (list int)) "to_list" [ 0; 1; 2; 4; 5; 6; 7 ] (Mask.to_list m)

let test_mask_bounds () =
  Alcotest.check_raises "zero" (Invalid_argument "Mask.full") (fun () ->
      ignore (Mask.full 0));
  Alcotest.check_raises "too wide" (Invalid_argument "Mask.full") (fun () ->
      ignore (Mask.full 63));
  ignore (Mask.full Mask.max_lanes)

let prop_mask_roundtrip =
  QCheck.Test.make ~name:"mask of_list/to_list" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_bound 20) (int_bound 61))
    (fun lanes ->
      let expect = List.sort_uniq compare lanes in
      Mask.to_list (Mask.of_list lanes) = expect)

let prop_mask_set_ops =
  QCheck.Test.make ~name:"mask union/inter consistent with sets" ~count:300
    QCheck.(pair (list_of_size (QCheck.Gen.int_bound 15) (int_bound 61))
              (list_of_size (QCheck.Gen.int_bound 15) (int_bound 61)))
    (fun (a, b) ->
      let ma = Mask.of_list a and mb = Mask.of_list b in
      let sa = List.sort_uniq compare a and sb = List.sort_uniq compare b in
      Mask.to_list (Mask.union ma mb) = List.sort_uniq compare (sa @ sb)
      && Mask.to_list (Mask.inter ma mb)
         = List.filter (fun x -> List.mem x sb) sa)

(* -- coalescer ------------------------------------------------------------ *)

let test_coalesce_contiguous () =
  Alcotest.(check int) "4x8B in one line" 1
    (Coalesce.count_transactions [ (0, 8); (8, 8); (16, 8); (24, 8) ]);
  Alcotest.(check int) "crosses a boundary" 2
    (Coalesce.count_transactions [ (24, 8); (32, 8) ]);
  Alcotest.(check int) "straddling access" 2
    (Coalesce.count_transactions [ (28, 8) ])

let test_coalesce_duplicates () =
  (* broadcast: all lanes at the same address -> one transaction *)
  Alcotest.(check int) "broadcast" 1
    (Coalesce.count_transactions (List.init 32 (fun _ -> (100, 8))))

let test_coalesce_segments () =
  let c =
    Coalesce.create
      (Threadfuser_prog.Program.assemble
         [ Threadfuser_prog.Build.func "f" [ Threadfuser_prog.Build.ret ] ])
  in
  let stack_addr = Layout.stack_top 0 - 64 in
  let heap_addr = Layout.heap_base + 128 in
  let n =
    Coalesce.record c ~is_store:false ~site:0
      [ (stack_addr, 8); (heap_addr, 8); (0x20000, 8) ]
  in
  Alcotest.(check int) "three segments, three txns" 3 n;
  Alcotest.(check int) "stack counted" 1 c.Coalesce.stack.Coalesce.ld_txns;
  Alcotest.(check int) "heap counted" 1 c.Coalesce.heap.Coalesce.ld_txns;
  Alcotest.(check int) "global counted" 1 c.Coalesce.global.Coalesce.ld_txns;
  Alcotest.(check int) "issues per segment" 1 c.Coalesce.heap.Coalesce.ld_issues

let prop_coalesce_bounds =
  QCheck.Test.make ~name:"1 <= txns <= lanes (aligned 8B)" ~count:500
    QCheck.(list_of_size (QCheck.Gen.int_range 1 32) (int_bound 10_000))
    (fun word_addrs ->
      let accesses = List.map (fun a -> (a * 8, 8)) word_addrs in
      let t = Coalesce.count_transactions accesses in
      t >= 1 && t <= List.length accesses)

let prop_coalesce_lower_bound =
  QCheck.Test.make ~name:"txns >= ceil(unique bytes / 32)" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 32) (int_bound 1000))
    (fun word_addrs ->
      let accesses = List.map (fun a -> (a * 8, 8)) word_addrs in
      let bytes =
        List.sort_uniq compare word_addrs |> List.length |> fun n -> n * 8
      in
      Coalesce.count_transactions accesses >= (bytes + 31) / 32)

(* -- cracking ------------------------------------------------------------- *)

(* The micro-ops instruction [i] cracks to, through the path the analyzer
   takes: [Crack.sites] of a one-instruction program, emitted for one warp
   whose lane 0 loads [ld] / stores [st] (if given) by a
   [Warp_trace.Builder] emitter, and read back through the view. *)
let crack ?ld ?st i =
  let prog =
    {
      Program.funcs =
        [|
          {
            Program.name = "f";
            fid = 0;
            blocks = [| { Program.instrs = [| i |]; src_label = None } |];
          };
        |];
      index = Hashtbl.create 1;
    }
  in
  let b = Warp_trace.Builder.create ~warp_size:32 ~n_warps:1 (Crack.sites prog) in
  let e = Warp_trace.Builder.emitter b in
  let access = function None -> (0, [||]) | Some a -> (1, [| a |]) in
  let n_ld, ld_addr = access ld and n_st, st_addr = access st in
  Warp_trace.Builder.start e ~warp:0;
  Warp_trace.Builder.emit e ~site:0 (Mask.singleton 0) ~n_ld [| 0 |] ld_addr ~n_st [| 0 |]
    st_addr;
  Warp_trace.Builder.seal e;
  let _, ops = (Warp_trace.to_entries (Warp_trace.Builder.finish b)).(0) in
  Array.to_list (Array.map (fun (en : Warp_trace.entry) -> en.Warp_trace.op) ops)

let classes ops = List.map (fun (m : Warp_trace.mop) -> m.Warp_trace.cls) ops

let test_crack_reg_alu () =
  let i = Instr.Binop (Op.Add, Width.W8, Operand.Reg 1, Operand.Reg 2) in
  Alcotest.(check int) "one mop" 1 (List.length (crack i));
  Alcotest.(check bool) "alu" true (classes (crack i) = [ Opclass.Ialu ])

let test_crack_load_op () =
  (* add r1, [r2] -> load + add *)
  let m = Operand.Mem (Operand.mem ~base:(Reg.r 2) ()) in
  let i = Instr.Binop (Op.Add, Width.W8, Operand.Reg 1, m) in
  let ops = crack ~ld:0x100 i in
  Alcotest.(check (list string)) "load;add" [ "load"; "ialu" ]
    (List.map Opclass.to_string (classes ops));
  (* the ALU op must read the cracking temporary the load wrote *)
  match ops with
  | [ load; alu ] ->
      Alcotest.(check int) "load dst is temp" Warp_trace.temp_reg load.Warp_trace.dst;
      Alcotest.(check bool) "alu reads temp" true
        (Array.mem Warp_trace.temp_reg alu.Warp_trace.srcs)
  | _ -> Alcotest.fail "expected two mops"

let test_crack_rmw () =
  (* add [r2], r1 -> load + add + store *)
  let m = Operand.Mem (Operand.mem ~base:(Reg.r 2) ()) in
  let i = Instr.Binop (Op.Add, Width.W8, m, Operand.Reg 1) in
  Alcotest.(check (list string)) "load;add;store" [ "load"; "ialu"; "store" ]
    (List.map Opclass.to_string (classes (crack ~ld:0x40 ~st:0x40 i)))

let test_crack_spaces () =
  let m = Operand.Mem (Operand.mem ~base:(Reg.r 2) ()) in
  let i = Instr.Mov (Width.W8, Operand.Reg 1, m) in
  let space addr =
    match crack ~ld:addr i with
    | [ { Warp_trace.mem = Some m; _ } ] -> m.Warp_trace.space
    | _ -> Alcotest.fail "expected one load"
  in
  Alcotest.(check bool) "stack -> local" true
    (space (Layout.stack_top 0 - 8) = Warp_trace.Local);
  Alcotest.(check bool) "heap -> global" true
    (space (Layout.heap_base + 8) = Warp_trace.Global)

let test_crack_control () =
  Alcotest.(check bool) "jcc reads flags" true
    (match crack (Instr.Jcc (Cond.Lt, 3)) with
    | [ b ] -> Array.mem Warp_trace.flags_reg b.Warp_trace.srcs
    | _ -> false);
  Alcotest.(check int) "io cracks to nothing" 0
    (List.length (crack (Instr.Io (Instr.In, Operand.Imm 5))));
  Alcotest.(check bool) "lock is sync" true
    (classes (crack (Instr.Lock_acquire (Operand.Imm 1))) = [ Opclass.Sync ])

(* -- cursor ---------------------------------------------------------------- *)

let cursor_of events = Cursor.of_trace (Thread_trace.of_events 0 events)

let test_cursor_absorbs_skips () =
  let c =
    cursor_of
      [|
        Event.Skip { reason = Event.Io; n_instr = 10 };
        Event.Skip { reason = Event.Spin; n_instr = 5 };
        Event.Call 2;
        Event.Return;
      |]
  in
  (match Cursor.event c with
  | Event.Call 2 -> ()
  | _ -> Alcotest.fail "expected call after skips");
  Alcotest.(check int) "io counted" 10 c.Cursor.skipped_io;
  Alcotest.(check int) "spin counted" 5 c.Cursor.skipped_spin;
  Alcotest.(check int) "at the call" 2 c.Cursor.pos;
  c.Cursor.pos <- c.Cursor.pos + 1;
  (match Cursor.event c with
  | Event.Return -> ()
  | _ -> Alcotest.fail "expected return");
  c.Cursor.pos <- c.Cursor.pos + 1;
  Alcotest.(check bool) "at end" true (Cursor.at_end c);
  (match Cursor.event c with
  | Event.Skip { n_instr = 0; _ } -> ()
  | _ -> Alcotest.fail "end of trace")

(* -- NCP reconvergence ----------------------------------------------------- *)

(* Build a DCFG by hand: a lock-shaped region
     0 -> 1 -> 2 -> 3 -> 4(exit edge)    (1=CS entry, 3=post-unlock)
   plus a diamond 0 -> {1} only; we check ncp semantics directly. *)
let hand_dcfg edges n_blocks =
  let succs = Array.make (n_blocks + 1) [] and preds = Array.make (n_blocks + 1) [] in
  List.iter
    (fun (a, b) ->
      succs.(a) <- b :: succs.(a);
      preds.(b) <- a :: preds.(b))
    edges;
  {
    Dcfg.func = 0;
    n_blocks;
    exit_node = n_blocks;
    succs;
    preds;
    observed = Array.make (n_blocks + 1) true;
  }

let test_ncp_chain () =
  (* straight line 0->1->2->3->exit *)
  let g = hand_dcfg [ (0, 1); (1, 2); (2, 3); (3, 4) ] 4 in
  let ip = Ipdom.compute g in
  (* a lane at 1 and a lane at 3: they meet at 3 (the lane at 3 waits) *)
  Alcotest.(check int) "ncp(1,3)" 3 (Ipdom.nearest_common_post_dominator ip 1 3);
  Alcotest.(check int) "ncp(3,1) symmetric" 3
    (Ipdom.nearest_common_post_dominator ip 3 1);
  Alcotest.(check int) "ncp with self" 2 (Ipdom.nearest_common_post_dominator ip 2 2)

let test_ncp_diamond () =
  (* 0 -> {1,2} -> 3 -> exit *)
  let g = hand_dcfg [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 4) ] 4 in
  let ip = Ipdom.compute g in
  Alcotest.(check int) "branch targets meet at join" 3
    (Ipdom.nearest_common_post_dominator ip 1 2);
  Alcotest.(check int) "ipdom of branch block" 3 (Ipdom.reconvergence_point ip 0)

let test_ncp_nested () =
  (* nested diamonds: 0->{1,4}; 1->{2,3}->5; 4->5; 5->exit *)
  let g =
    hand_dcfg
      [ (0, 1); (0, 4); (1, 2); (1, 3); (2, 5); (3, 5); (4, 5); (5, 6) ]
      6
  in
  let ip = Ipdom.compute g in
  Alcotest.(check int) "inner join" 5 (Ipdom.nearest_common_post_dominator ip 2 3);
  Alcotest.(check int) "across nesting" 5 (Ipdom.nearest_common_post_dominator ip 2 4);
  Alcotest.(check int) "outer reconv" 5 (Ipdom.reconvergence_point ip 0)

(* ncp must agree with a brute-force "first common element of both
   post-dominator chains" on random graphs *)
let prop_ncp_on_chains =
  let gen =
    let open QCheck.Gen in
    let* n = int_range 3 10 in
    let* extra =
      list_size (int_bound (2 * n))
        (let* a = int_bound (n - 1) in
         let* b = int_bound n in
         return (a, b))
    in
    let edges = List.init n (fun i -> (i, i + 1)) @ extra in
    return (n, List.sort_uniq compare (List.filter (fun (a, b) -> a <> b) edges))
  in
  QCheck.Test.make ~name:"ncp = first common chain element" ~count:300
    (QCheck.make gen)
    (fun (n, edges) ->
      let g = hand_dcfg edges n in
      let ip = Ipdom.compute g in
      let chain v =
        let rec go v acc = if v = g.Dcfg.exit_node then List.rev (v :: acc) else go ip.Ipdom.ipdom.(v) (v :: acc) in
        go v []
      in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          let ca = chain a in
          let expected = List.find (fun x -> List.mem x (chain b)) ca in
          if Ipdom.nearest_common_post_dominator ip a b <> expected then ok := false
        done
      done;
      !ok)

(* -- timelines --------------------------------------------------------------- *)

let test_timeline_math () =
  let t =
    {
      Timeline.warp_id = 0;
      warp_size = 4;
      samples =
        [|
          { Timeline.n_instr = 10; active = 4 };
          { Timeline.n_instr = 10; active = 2 };
        |];
    }
  in
  Alcotest.(check (float 1e-9)) "mean active" 3.0 (Timeline.mean_active t);
  let s = Timeline.sparkline ~width:2 t in
  Alcotest.(check bool) "two cells" true (String.length s > 0);
  (* full occupancy first, half occupancy second: strictly descending *)
  Alcotest.(check bool) "descending" true (s <> String.make (String.length s) s.[0])

let test_sparkline_zero_issues () =
  let t = { Timeline.warp_id = 0; warp_size = 4; samples = [||] } in
  Alcotest.(check string) "empty warp is blank" "     "
    (Timeline.sparkline ~width:5 t);
  let t0 =
    { Timeline.warp_id = 0; warp_size = 4;
      samples = [| { Timeline.n_instr = 0; active = 4 } |] }
  in
  Alcotest.(check string) "zero-issue samples are blank too" "   "
    (Timeline.sparkline ~width:3 t0)

let test_sparkline_width_one () =
  (* one cell carries the issue-weighted mean: (10*4 + 10*2)/20 = 3 of 4
     lanes -> frac 0.75 -> ceil(6.0) = glyph 6 *)
  let t =
    { Timeline.warp_id = 0; warp_size = 4;
      samples =
        [| { Timeline.n_instr = 10; active = 4 };
           { Timeline.n_instr = 10; active = 2 } |] }
  in
  Alcotest.(check string) "width-1 mean" "\xe2\x96\x86"
    (Timeline.sparkline ~width:1 t)

let test_sparkline_bucket_weighting () =
  (* a sample straddling a bucket boundary contributes issue-weighted:
     {3 instrs, 4 active} fills bucket 0 (2 issues) and half of bucket 1;
     {1 instr, 0 active} fills the rest of bucket 1.  Bucket 1's mean is
     (1*4 + 1*0)/2 = 2 of 4 lanes -> glyph 4; bucket 0 is full -> glyph 8. *)
  let t =
    { Timeline.warp_id = 0; warp_size = 4;
      samples =
        [| { Timeline.n_instr = 3; active = 4 };
           { Timeline.n_instr = 1; active = 0 } |] }
  in
  Alcotest.(check string) "issue-weighted split" "\xe2\x96\x88\xe2\x96\x84"
    (Timeline.sparkline ~width:2 t);
  (* one sample spread evenly over both cells renders identically in each *)
  let flat =
    { Timeline.warp_id = 0; warp_size = 4;
      samples = [| { Timeline.n_instr = 2; active = 2 } |] }
  in
  Alcotest.(check string) "even spread" "\xe2\x96\x84\xe2\x96\x84"
    (Timeline.sparkline ~width:2 flat)

let test_timeline_recorded_by_analyzer () =
  let r =
    Threadfuser_workloads.Workload.analyze
      ~options:{ Analyzer.default_options with record_timeline = true; warp_size = 8 }
      ~threads:16
      (Threadfuser_workloads.Registry.find "bfs")
  in
  Alcotest.(check int) "one timeline per warp" 2 (List.length r.Analyzer.timelines);
  List.iter
    (fun tl ->
      (* the timeline's issue weight must equal the warp's issue count *)
      let issues =
        List.find
          (fun (w : Metrics.warp_stat) -> w.Metrics.warp_id = tl.Timeline.warp_id)
          r.Analyzer.report.Metrics.per_warp
      in
      Alcotest.(check int) "issues match" issues.Metrics.warp_issues
        (Timeline.total_issues tl);
      let m = Timeline.mean_active tl in
      Alcotest.(check bool) "mean in range" true (m > 0.0 && m <= 8.0))
    r.Analyzer.timelines

(* Exact invariant: the timeline IS the efficiency ledger — the
   issue-weighted mean active count over warp size equals the warp's
   Eq. 1 efficiency, including through lock serialization. *)
let test_timeline_equals_efficiency () =
  List.iter
    (fun name ->
      let r =
        Threadfuser_workloads.Workload.analyze
          ~options:{ Analyzer.default_options with record_timeline = true }
          (Threadfuser_workloads.Registry.find name)
      in
      List.iter
        (fun tl ->
          let w =
            List.find
              (fun (w : Metrics.warp_stat) ->
                w.Metrics.warp_id = tl.Timeline.warp_id)
              r.Analyzer.report.Metrics.per_warp
          in
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "%s warp %d" name tl.Timeline.warp_id)
            w.Metrics.warp_efficiency
            (Timeline.mean_active tl /. float_of_int tl.Timeline.warp_size))
        r.Analyzer.timelines)
    [ "pigz"; "hdsearch-mid"; "bfs"; "md5" ]

let test_timeline_off_by_default () =
  let r =
    Threadfuser_workloads.Workload.analyze
      (Threadfuser_workloads.Registry.find "vectoradd")
  in
  Alcotest.(check int) "no timelines" 0 (List.length r.Analyzer.timelines)

(* -- warp-trace serialization ---------------------------------------------- *)

module W = Threadfuser_workloads.Workload
module Registry = Threadfuser_workloads.Registry

let real_warp_trace () =
  let r =
    W.analyze
      ~options:{ Analyzer.default_options with gen_warp_trace = true; warp_size = 8 }
      ~threads:16 (Registry.find "bfs")
  in
  Option.get r.Analyzer.warp_trace

let test_warp_serial_roundtrip () =
  let wt = real_warp_trace () in
  let back = Warp_serial.of_string (Warp_serial.to_string wt) in
  Alcotest.(check int) "warp size" wt.Warp_trace.warp_size back.Warp_trace.warp_size;
  Alcotest.(check int) "warp count" (Array.length wt.Warp_trace.warps)
    (Array.length back.Warp_trace.warps);
  Alcotest.(check bool) "entries identical" true (wt = back)

let test_warp_serial_file () =
  let wt = real_warp_trace () in
  let path = Filename.temp_file "tfwarp" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Warp_serial.to_file path wt;
      Alcotest.(check bool) "file roundtrip" true (Warp_serial.of_file path = wt))

let test_warp_serial_corrupt () =
  (match Warp_serial.of_string "NOPE 32 1\n" with
  | exception Warp_serial.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt on bad magic");
  let wt = real_warp_trace () in
  let s = Warp_serial.to_string wt in
  let cut = String.sub s 0 (String.length s / 2) in
  match Warp_serial.of_string cut with
  | exception Warp_serial.Corrupt _ -> ()
  | exception Failure _ -> () (* int_of_string on a torn token *)
  | _ -> Alcotest.fail "expected failure on truncation"

(* The boxed view and the flat form convert both ways without loss. *)
let test_warp_view_roundtrip () =
  let wt = real_warp_trace () in
  let back = Warp_trace.of_entries ~warp_size:wt.Warp_trace.warp_size (Warp_trace.to_entries wt) in
  Alcotest.(check string) "same TFWARP1 bytes" (Warp_serial.to_string wt)
    (Warp_serial.to_string back);
  Alcotest.(check bool) "equal flat form" true (wt = back)

let expect_corrupt what s =
  match Warp_serial.of_string s with
  | exception Warp_serial.Corrupt _ -> ()
  | _ -> Alcotest.failf "%s: expected Corrupt" what

(* Register ids index the simulator's scoreboard and sizes bound its line
   loop: out-of-range values are corrupt input, not a crash or a hang. *)
let test_warp_serial_bounds () =
  let file op = Printf.sprintf "TFWARP1 4 1\nW 0 1\n%s\n" op in
  ignore (Warp_serial.of_string (file "f ialu -1 2 0 17 -"));
  ignore (Warp_serial.of_string (file "f load 17 1 3 M L 255 G 0 20 40 -"));
  expect_corrupt "dst 99" (file "f ialu 99 0 -");
  expect_corrupt "dst 18" (file "f ialu 18 0 -");
  expect_corrupt "dst -2" (file "f ialu -2 0 -");
  expect_corrupt "src 18" (file "f ialu 1 1 18 -");
  expect_corrupt "size 256" (file "f load 1 0 M L 256 G 0 20 40 60");
  expect_corrupt "size 4e12" (file "f load 1 0 M L 4000000000000 G 0 20 40 60")

(* -- warp width bounds -------------------------------------------------------- *)

(* Masks pack lanes into an int, so 1..Mask.max_lanes is the whole range:
   wider or empty warps are refused up front, and the widest warp replays
   every one of its lanes. *)
let test_warp_width_bounds () =
  let tr = W.trace_cpu ~threads:Mask.max_lanes (Registry.find "vectoradd") in
  let options warp_size = { Analyzer.default_options with warp_size } in
  List.iter
    (fun ws ->
      (match Analyzer.analyze ~options:(options ws) tr.W.prog tr.W.traces with
      | _ -> Alcotest.failf "analyze accepted warp size %d" ws
      | exception Invalid_argument _ -> ());
      match Analyzer.analyze_checked ~options:(options ws) tr.W.prog tr.W.traces with
      | _ -> Alcotest.failf "analyze_checked accepted warp size %d" ws
      | exception Invalid_argument _ -> ())
    [ 0; Mask.max_lanes + 1 ];
  let r =
    (Analyzer.analyze ~options:(options Mask.max_lanes) tr.W.prog tr.W.traces)
      .Analyzer.report
  in
  let traced =
    Array.fold_left
      (fun acc (t : Thread_trace.t) ->
        Array.fold_left
          (fun acc -> function Event.Block b -> acc + b.n_instr | _ -> acc)
          acc (Thread_trace.to_events t))
      0 tr.W.traces
  in
  Alcotest.(check (list int))
    "one full warp" [ Mask.max_lanes ]
    (List.map (fun (w : Metrics.warp_stat) -> w.Metrics.lanes) r.Metrics.per_warp);
  Alcotest.(check int) "every lane's instructions" traced r.Metrics.thread_instrs

let () =
  Alcotest.run "core_units"
    [
      ( "mask",
        [
          Alcotest.test_case "basics" `Quick test_mask_basics;
          Alcotest.test_case "bounds" `Quick test_mask_bounds;
          QCheck_alcotest.to_alcotest prop_mask_roundtrip;
          QCheck_alcotest.to_alcotest prop_mask_set_ops;
          Alcotest.test_case "warp width bounds" `Quick test_warp_width_bounds;
        ] );
      ( "coalesce",
        [
          Alcotest.test_case "contiguous" `Quick test_coalesce_contiguous;
          Alcotest.test_case "broadcast" `Quick test_coalesce_duplicates;
          Alcotest.test_case "segments" `Quick test_coalesce_segments;
          QCheck_alcotest.to_alcotest prop_coalesce_bounds;
          QCheck_alcotest.to_alcotest prop_coalesce_lower_bound;
        ] );
      ( "crack",
        [
          Alcotest.test_case "reg alu" `Quick test_crack_reg_alu;
          Alcotest.test_case "load+op" `Quick test_crack_load_op;
          Alcotest.test_case "rmw" `Quick test_crack_rmw;
          Alcotest.test_case "spaces" `Quick test_crack_spaces;
          Alcotest.test_case "control" `Quick test_crack_control;
        ] );
      ( "cursor",
        [ Alcotest.test_case "absorbs skips" `Quick test_cursor_absorbs_skips ] );
      ( "timeline",
        [
          Alcotest.test_case "math" `Quick test_timeline_math;
          Alcotest.test_case "sparkline zero issues" `Quick
            test_sparkline_zero_issues;
          Alcotest.test_case "sparkline width one" `Quick
            test_sparkline_width_one;
          Alcotest.test_case "sparkline bucket weighting" `Quick
            test_sparkline_bucket_weighting;
          Alcotest.test_case "recorded" `Quick test_timeline_recorded_by_analyzer;
          Alcotest.test_case "off by default" `Quick test_timeline_off_by_default;
          Alcotest.test_case "equals efficiency" `Quick test_timeline_equals_efficiency;
        ] );
      ( "warp_serial",
        [
          Alcotest.test_case "roundtrip" `Quick test_warp_serial_roundtrip;
          Alcotest.test_case "file" `Quick test_warp_serial_file;
          Alcotest.test_case "corrupt" `Quick test_warp_serial_corrupt;
          Alcotest.test_case "view roundtrip" `Quick test_warp_view_roundtrip;
          Alcotest.test_case "register and size bounds" `Quick test_warp_serial_bounds;
        ] );
      ( "ncp",
        [
          Alcotest.test_case "chain" `Quick test_ncp_chain;
          Alcotest.test_case "diamond" `Quick test_ncp_diamond;
          Alcotest.test_case "nested" `Quick test_ncp_nested;
          QCheck_alcotest.to_alcotest prop_ncp_on_chains;
        ] );
    ]
