(* Tests for the fault-injection subsystem and the graceful-degradation
   (quarantine) pipeline: seeded injector determinism, typed deadlock /
   livelock verdicts from the replay watchdogs, coverage accounting on
   partial reports, and a fuzz smoke run over a registered workload. *)

open Threadfuser_prog
open Threadfuser
module Machine = Threadfuser_machine.Machine
module Thread_trace = Threadfuser_trace.Thread_trace
module Event = Threadfuser_trace.Event
module Pack = Threadfuser_trace.Pack
module Crc32 = Threadfuser_util.Crc32
module Tf_error = Threadfuser_util.Tf_error
module Injector = Threadfuser_fault.Injector
module Exec_fault = Threadfuser_fault.Exec_fault
module Store_fault = Threadfuser_fault.Store_fault
module Fuzz = Threadfuser_fault.Fuzz
module Registry = Threadfuser_workloads.Registry
module W = Threadfuser_workloads.Workload

(* A worker with a critical section; run on a quantum-1 machine so the
   lanes genuinely contend for the lock. *)
let lock_funcs =
  [
    Build.(
      func "worker"
        [
          lock_acquire (imm 0x500);
          add (reg 2) (imm 1);
          add (reg 2) (imm 2);
          lock_release (imm 0x500);
          ret;
        ]);
  ]

let traced_lock_workload ?(n = 4) () =
  let prog = Program.assemble lock_funcs in
  let m =
    Machine.create ~config:{ Machine.default_config with quantum = 1 } prog
  in
  let r = Machine.run_workers m ~worker:"worker" ~args:(Array.make n []) in
  (prog, r.Machine.traces)

let options = { Analyzer.default_options with warp_size = 4 }

(* Dropping a Lock_rel must surface as a typed Deadlock: the trusting
   pipeline raises it, the checked pipeline quarantines and reports. *)
let test_deadlock_verdict () =
  let prog, traces = traced_lock_workload () in
  (* drop the first Lock_rel of thread 0 *)
  let t0 = traces.(0) in
  let events =
    Array.of_list
      (List.filter
         (function Event.Lock_rel _ -> false | _ -> true)
         (Array.to_list (Thread_trace.to_events t0)))
  in
  let damaged = Array.copy traces in
  damaged.(0) <- Thread_trace.of_events t0.Thread_trace.tid events;
  (match Analyzer.analyze ~options prog damaged with
  | exception Tf_error.Error d ->
      Alcotest.(check string)
        "typed deadlock" "deadlock"
        (Tf_error.kind_name d.Tf_error.kind)
  | exception e ->
      Alcotest.failf "expected Tf_error deadlock, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "dropped unlock accepted by trusting pipeline");
  (* checked pipeline: no exception, explicit quarantine + partial report *)
  let c = Analyzer.analyze_checked ~options prog damaged in
  let cov = c.Analyzer.result.Analyzer.report.Metrics.coverage in
  Alcotest.(check bool) "quarantined something" true (c.Analyzer.quarantined <> []);
  Alcotest.(check int) "coverage adds up" cov.Metrics.threads_total
    (cov.Metrics.threads_analyzed + cov.Metrics.threads_quarantined);
  Alcotest.(check bool) "report degraded" true
    (Metrics.degraded c.Analyzer.result.Analyzer.report)

(* A fuel bound far below the trace size must end in failed warps, never a
   hang or an escape. *)
let test_fuel_watchdog () =
  let prog, traces = traced_lock_workload () in
  (match Analyzer.analyze_checked ~options ~fuel:3 prog traces with
  | c ->
      let cov = c.Analyzer.result.Analyzer.report.Metrics.coverage in
      Alcotest.(check bool) "starved replay quarantines" true
        (cov.Metrics.warps_failed > 0 || cov.Metrics.threads_quarantined > 0);
      Alcotest.(check int) "coverage adds up" cov.Metrics.threads_total
        (cov.Metrics.threads_analyzed + cov.Metrics.threads_quarantined)
  | exception e ->
      Alcotest.failf "fuel exhaustion escaped: %s" (Printexc.to_string e));
  (* and with the default (generous) fuel the same traces analyze fully *)
  let c = Analyzer.analyze_checked ~options prog traces in
  Alcotest.(check bool) "clean under default fuel" false
    (Metrics.degraded c.Analyzer.result.Analyzer.report)

(* A warp that aborts counts exactly the skips its lanes reached, at any
   domain count.  Warp 0's lane 0 absorbs an I/O skip of 7 right after
   its first block; lane 1 returns after that block instead of entering
   the loop, so regrouping the block aborts the warp before lane 1
   reaches its skip of 100.  Each of the other six threads has one I/O
   skip of 3, all reached.  The loops are long enough (over 40k events
   in all) that [-j 2] really replays on two domains. *)
let test_aborted_warp_skips () =
  let prog =
    Program.assemble
      [
        Build.(
          func "worker"
            [
              mov (reg 1) (imm 0);
              while_ Threadfuser_isa.Cond.Lt (reg 1) (imm 4000)
                [ add (reg 1) (imm 1) ];
              ret;
            ]);
      ]
  in
  let m = Machine.create prog in
  let r = Machine.run_workers m ~worker:"worker" ~args:(Array.make 8 []) in
  let io n = Event.Skip { reason = Event.Io; n_instr = n } in
  let traces =
    Array.map
      (fun t ->
        let ev = Thread_trace.to_events t in
        let tid = t.Thread_trace.tid in
        let after_first extra =
          Array.concat
            [ [| ev.(0) |]; extra; Array.sub ev 1 (Array.length ev - 1) ]
        in
        Thread_trace.of_events tid
          (match tid with
          | 0 -> after_first [| io 7 |]
          | 1 -> [| ev.(0); Event.Return; io 100 |]
          | _ -> after_first [| io 3 |]))
      r.Machine.traces
  in
  let work =
    Array.fold_left (fun n t -> n + Thread_trace.length t) 0 traces
  in
  Alcotest.(check int) "two domains at -j 2" 2
    (Par_replay.auto_domains ~requested:2 ~items:4 ~work);
  List.iter
    (fun domains ->
      let options = { Analyzer.default_options with warp_size = 2; domains } in
      let c = Analyzer.analyze_checked ~options prog traces in
      let rep = c.Analyzer.result.Analyzer.report in
      let name what = Printf.sprintf "-j %d: %s" domains what in
      Alcotest.(check int) (name "warp 0 failed in replay") 1
        rep.Metrics.coverage.Metrics.warps_failed;
      Alcotest.(check int) (name "skips reached") 25 rep.Metrics.skipped_io)
    [ 1; 2 ]

(* Same seed -> byte-identical corruption; different seed -> (almost
   surely) different damage. *)
let test_injector_deterministic () =
  let _, traces = traced_lock_workload () in
  let d1, a1 = Injector.inject ~seed:42 traces in
  let d2, a2 = Injector.inject ~seed:42 traces in
  Alcotest.(check string) "event faults deterministic" (Pack.encode d1)
    (Pack.encode d2);
  Alcotest.(check int) "same faults applied" (List.length a1)
    (List.length a2);
  let bytes = Pack.encode traces in
  let b1, _ = Injector.corrupt_bytes ~seed:7 bytes in
  let b2, _ = Injector.corrupt_bytes ~seed:7 bytes in
  Alcotest.(check string) "byte faults deterministic" b1 b2;
  Alcotest.(check bool) "corruption changed something" true (b1 <> bytes)

(* The acceptance contract in miniature: a seeded campaign over a real
   registered workload must end every run in a clean report, a typed
   rejection, or an accounted partial report — zero uncaught exceptions. *)
let test_fuzz_smoke () =
  let w = Registry.find "vectoradd" in
  let tr = W.trace_cpu ~threads:8 w in
  let bytes = Pack.encode tr.W.traces in
  let t = Fuzz.run ~seed0:1 ~runs:100 ~prog:tr.W.prog ~bytes () in
  Alcotest.(check int) "all runs classified" 100 t.Fuzz.runs;
  (match t.Fuzz.uncaught with
  | [] -> ()
  | (seed, m) :: _ ->
      Alcotest.failf "seed %d escaped the checked pipeline: %s" seed m);
  Alcotest.(check bool) "campaign exercised the reject path" true
    (t.Fuzz.rejected > 0)

(* Fuzzing a TFPACK1 file never gets past the per-block CRC-32, so this
   is the payload decoder's hostile-input coverage: overwrite payload
   bytes, re-seal every block's CRC, then load.  The loader must return
   traces or raise [Pack.Corrupt], and whatever it returns must go
   through [analyze_checked] without raising.  The workloads cover
   accesses, calls, locks and skips (no registered workload has
   barriers; a mutated tag byte can still produce one). *)
let resealed_targets =
  lazy
    (Array.of_list
       (List.map
          (fun name ->
            let tr = W.trace_cpu ~threads:8 (Registry.find name) in
            (name, tr.W.prog, Pack.encode tr.W.traces))
          [
            "vectoradd"; "bfs"; "mcrouter-memcached"; "uniqueid";
            "fluidanimate"; "hdsearch-mid";
          ]))

(* (payload offset, payload length) of every thread block *)
let pack_blocks bytes =
  let r = Pack.reader ~pos:(String.length Pack.magic) bytes in
  let n = Pack.read_uint r in
  Array.init n (fun _ ->
      ignore (Pack.read_uint r : int);
      let len = Pack.read_uint r in
      let off = r.Pack.pos in
      r.Pack.pos <- off + len + 4;
      (off, len))

let reseal bytes blocks =
  Array.iter
    (fun (off, len) ->
      let crc = Crc32.string (Bytes.sub_string bytes off len) in
      for k = 0 to 3 do
        Bytes.set bytes (off + len + k) (Char.chr ((crc lsr (8 * k)) land 0xff))
      done)
    blocks

(* A sealed thread block of [k] Blocks that each declare [m] accesses.
   The payload ends with an access column of exactly [4 * m] bytes, so
   every count passes the per-block bound (a quarter of the bytes left
   when it is read), yet together they claim [k * m]: only a bound on
   the sum stops the decoder sizing its access columns from them. *)
let inflated_block ~k ~m =
  let payload = Buffer.create 64 in
  Pack.write_uint payload k;
  Buffer.add_string payload (String.make k '\000');
  for _ = 1 to k do
    List.iter (Pack.write_uint payload) [ 0; 0; 1; m ]
  done;
  Buffer.add_string payload (String.make (4 * m) '\000');
  let payload = Buffer.contents payload in
  let b = Buffer.create (String.length payload + 16) in
  Pack.write_uint b 0;
  Pack.write_uint b (String.length payload);
  Buffer.add_string b payload;
  Crc32.add_le b (Crc32.string payload);
  Buffer.contents b

(* [bytes] with [block] inserted as its first thread block. *)
let prepend_block bytes block =
  let r = Pack.reader ~pos:(String.length Pack.magic) bytes in
  let n = Pack.read_uint r in
  let buf = Buffer.create (String.length bytes + String.length block) in
  Buffer.add_string buf Pack.magic;
  Pack.write_uint buf (n + 1);
  Buffer.add_string buf block;
  Buffer.add_substring buf bytes r.Pack.pos (String.length bytes - r.Pack.pos);
  Buffer.contents buf

(* Every mutated file must decode to a typed error or analyze cleanly.
   With [inflate = Some (k, m)], the same file led by an
   {!inflated_block} must also be refused by the summed access count. *)
let prop_resealed_pack =
  QCheck.Test.make ~name:"re-sealed TFPACK1 mutations stay typed" ~count:600
    QCheck.(
      triple small_nat
        (list_of_size Gen.(int_range 1 4) (triple small_nat int (int_bound 255)))
        (option (pair small_nat small_nat)))
    (fun (target, edits, inflate) ->
      let targets = Lazy.force resealed_targets in
      let name, prog, clean = targets.(target mod Array.length targets) in
      let blocks = pack_blocks clean in
      let bytes = Bytes.of_string clean in
      List.iter
        (fun (b, pos, v) ->
          let off, len = blocks.(b mod Array.length blocks) in
          if len > 0 then
            Bytes.set bytes (off + ((pos land max_int) mod len)) (Char.chr v))
        edits;
      reseal bytes blocks;
      let bytes = Bytes.to_string bytes in
      (match Pack.decode bytes with
      | exception Pack.Corrupt _ -> ()
      | traces -> (
          match Analyzer.analyze_checked prog traces with
          | _ -> ()
          | exception e ->
              QCheck.Test.fail_reportf "%s: analyze_checked raised %s" name
                (Printexc.to_string e)));
      match inflate with
      | None -> true
      | Some (k, m) -> (
          (* shrinking stays in range: at least 2 Blocks, 1 access each *)
          let k = 2 + (k mod 63) and m = 1 + (m mod 1000) in
          match
            Pack.decode (prepend_block bytes (inflated_block ~k ~m))
          with
          | exception Pack.Corrupt msg
            when String.starts_with ~prefix:"access count" msg ->
              true
          | exception Pack.Corrupt msg ->
              QCheck.Test.fail_reportf "%s: inflated counts refused as %S" name
                msg
          | _ ->
              QCheck.Test.fail_reportf "%s: inflated access counts decoded"
                name))

(* Quarantining every thread must still produce a (fully degraded) report
   rather than an exception. *)
let test_all_quarantined () =
  let prog, traces = traced_lock_workload ~n:2 () in
  let garbage =
    Array.map
      (fun (t : Thread_trace.t) ->
        Thread_trace.of_events t.Thread_trace.tid [| Event.Return; Event.Return |])
      traces
  in
  let c = Analyzer.analyze_checked ~options prog garbage in
  let cov = c.Analyzer.result.Analyzer.report.Metrics.coverage in
  Alcotest.(check int) "none analyzed" 0 cov.Metrics.threads_analyzed;
  Alcotest.(check int) "all quarantined" 2 cov.Metrics.threads_quarantined

(* Quarantine is linear in the thread count.  Every thread here releases
   a lock it never took: at a few bytes per thread, 20 000 of them fit in
   a pack file of about 140 KB, and a per-thread scan of the diagnostic
   list takes seconds on such a set. *)
let test_quarantine_linear () =
  let prog = Program.assemble lock_funcs in
  let n = 20_000 in
  let traces =
    Array.init n (fun tid ->
        Thread_trace.of_events tid [| Event.Lock_rel 0x10; Event.Return |])
  in
  let t0 = Unix.gettimeofday () in
  let c = Analyzer.analyze_checked ~options prog traces in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "every thread quarantined" n
    (List.length c.Analyzer.quarantined);
  Alcotest.(check bool)
    (Printf.sprintf "quarantined in %.2f s (bound 2 s)" dt)
    true (dt < 2.0)

let exec_action p ~job ~attempt =
  match Exec_fault.decide p ~job ~attempt with
  | Exec_fault.No_fault -> "none"
  | Crash -> "crash"
  | Stall s -> Printf.sprintf "stall %g" s

let session_action p ~session =
  match Exec_fault.decide_session p ~session with
  | Exec_fault.Session_ok -> "none"
  | Disconnect n -> Printf.sprintf "disconnect %d" n
  | Stall_writer s -> Printf.sprintf "stall-writer %g" s
  | Oversize_frame -> "oversize-frame"

let decision_jobs =
  List.concat_map
    (fun w -> List.map (Printf.sprintf "%s.w%d.O1.s1" w) [ 8; 32 ])
    [ "vectoradd"; "bfs"; "uncoalesced"; "pigz"; "nbody" ]
  @ [ ""; "x" ]

(* Golden decision table for the three seeded fault plans: every
   [(plan, key)] below must map to the action recorded in
   fault_decisions.golden, so any change to stream derivation or arm
   order shows up as a diff rather than a silently different chaos run. *)
let fault_decision_table () =
  let b = Buffer.create 131072 in
  let line fmt = Printf.kbprintf (fun b -> Buffer.add_char b '\n') b fmt in
  let exec_plans =
    [
      ("c50s25", fun seed ->
          Exec_fault.plan ~seed ~crash_pct:50 ~stall_pct:25 ~stall_s:0.5
            ~first_attempt_only:false ());
      ("s100first", fun seed -> Exec_fault.plan ~seed ~stall_pct:100 ());
      ("c34s34bfs", fun seed ->
          Exec_fault.plan ~seed ~crash_pct:34 ~stall_pct:34
            ~first_attempt_only:false ~only_prefix:"bfs" ());
      ("c10s60", fun seed ->
          Exec_fault.plan ~seed ~crash_pct:10 ~stall_pct:60 ~stall_s:2.
            ~first_attempt_only:false ());
    ]
  in
  List.iter
    (fun (name, mk) ->
      List.iter
        (fun seed ->
          let p = mk seed in
          List.iter
            (fun job ->
              for attempt = 1 to 3 do
                line "exec %s seed=%d job=%S attempt=%d -> %s" name seed job
                  attempt (exec_action p ~job ~attempt)
              done)
            decision_jobs)
        [ 1; 4; 9; 42; 2024 ])
    exec_plans;
  let session_plans =
    [
      ("o34", fun seed -> Exec_fault.session_plan ~seed ~oversize_pct:34 ());
      ("d30w20o25", fun seed ->
          Exec_fault.session_plan ~seed ~disconnect_pct:30
            ~stall_writer_pct:20 ~oversize_pct:25 ~writer_stall_s:2.5 ());
      ("d100cut17", fun seed ->
          Exec_fault.session_plan ~seed ~disconnect_pct:100
            ~disconnect_after:17 ());
    ]
  in
  List.iter
    (fun (name, mk) ->
      List.iter
        (fun seed ->
          let p = mk seed in
          for session = 0 to 63 do
            line "session %s seed=%d session=%d -> %s" name seed session
              (session_action p ~session)
          done)
        [ 1; 4; 11; 99 ])
    session_plans;
  let store_plans =
    [
      ("t30f30p30", fun seed ->
          Store_fault.plan ~seed ~torn_pct:30 ~flip_pct:30 ~partial_pct:30 ());
      ("f100", fun seed -> Store_fault.plan ~seed ~flip_pct:100 ());
      ("t100", fun seed -> Store_fault.plan ~seed ~torn_pct:100 ());
    ]
  in
  let payload = String.init 300 (fun i -> Char.chr ((i * 37 + 11) land 255)) in
  let ids = List.init 40 (Printf.sprintf "entry-%02d") in
  List.iter
    (fun (name, mk) ->
      List.iter
        (fun seed ->
          let p = mk seed in
          List.iter
            (fun id ->
              let action = Store_fault.decide p ~id in
              let a =
                match action with
                | Store_fault.No_fault -> "none"
                | Torn_write f -> Printf.sprintf "torn-write %.17g" f
                | Bit_flip -> "bit-flip"
                | Partial_rename -> "partial-rename"
              in
              line "store %s seed=%d id=%s -> %s mangle=%s" name seed id a
                (Digest.to_hex
                   (Digest.string (Store_fault.mangle action ~id payload))))
            ids)
        [ 1; 7; 42 ])
    store_plans;
  Buffer.contents b

(* The table above was recorded before the three plans shared one draw
   core; the core must reproduce every line. *)
let test_decision_table () =
  let golden =
    (* dune copies the table beside the test binary *)
    let ic =
      open_in_bin
        (Filename.concat
           (Filename.dirname Sys.executable_name)
           "fault_decisions.golden")
    in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let expect = String.split_on_char '\n' golden in
  let got = String.split_on_char '\n' (fault_decision_table ()) in
  Alcotest.(check int) "table length" (List.length expect) (List.length got);
  List.iter2 (Alcotest.(check string) "decision") expect got

(* Every plan rejects a percentage outside 0..100 and the execution
   plans a stall that is not a finite, non-negative number of seconds,
   naming themselves. *)
let test_plan_validation () =
  let rejects name msg f =
    match f () with
    | () -> Alcotest.failf "%s accepted %s" name msg
    | exception Invalid_argument m ->
        Alcotest.(check string) "message" (name ^ ": " ^ msg) m
  in
  let pct = "percentages must be in 0..100" in
  rejects "Exec_fault.plan" pct (fun () ->
      ignore (Exec_fault.plan ~stall_pct:101 ()));
  rejects "Exec_fault.session_plan" pct (fun () ->
      ignore (Exec_fault.session_plan ~oversize_pct:(-1) ()));
  rejects "Store_fault.plan" pct (fun () ->
      ignore (Store_fault.plan ~partial_pct:200 ()));
  let secs = "stall seconds must be finite and >= 0" in
  List.iter
    (fun s ->
      rejects "Exec_fault.plan" secs (fun () ->
          ignore (Exec_fault.plan ~stall_pct:1 ~stall_s:s ()));
      rejects "Exec_fault.session_plan" secs (fun () ->
          ignore (Exec_fault.session_plan ~writer_stall_s:s ())))
    [ nan; infinity; neg_infinity; -1.; -0.001 ]

(* A [--fault] spec builds the same plan as the constructor call it
   spells: same decisions over the golden table's corpus, seeded or at
   the default seed. *)
let test_specs_decide_like_constructors () =
  let seeds = None :: List.map Option.some [ 1; 4; 9; 42; 2024 ] in
  let with_seed spec = function
    | None -> spec
    | Some s -> Printf.sprintf "%s,seed=%d" spec s
  in
  List.iter
    (fun (spec, mk) ->
      List.iter
        (fun seed ->
          let spec = with_seed spec seed in
          let a = mk ?seed () and b = Exec_fault.plan_of_spec spec in
          Alcotest.(check int) (spec ^ " retries") (Exec_fault.retries a)
            (Exec_fault.retries b);
          List.iter
            (fun job ->
              for attempt = 1 to 3 do
                Alcotest.(check string)
                  (Printf.sprintf "%s job=%S attempt=%d" spec job attempt)
                  (exec_action a ~job ~attempt)
                  (exec_action b ~job ~attempt)
              done)
            decision_jobs)
        seeds)
    [
      ( "crash=50,stall=25,stall-s=0.5,retries=3",
        fun ?seed () ->
          Exec_fault.plan ?seed ~crash_pct:50 ~stall_pct:25 ~stall_s:0.5
            ~retries:3 () );
      ("stall=100", fun ?seed () -> Exec_fault.plan ?seed ~stall_pct:100 ());
      ( "stall=60,crash=10,stall-s=2",
        fun ?seed () ->
          Exec_fault.plan ?seed ~crash_pct:10 ~stall_pct:60 ~stall_s:2. () );
      ("crash=40", fun ?seed () -> Exec_fault.plan ?seed ~crash_pct:40 ());
      ( "retries=2,crash=40",
        fun ?seed () -> Exec_fault.plan ?seed ~crash_pct:40 ~retries:2 () );
    ];
  List.iter
    (fun (spec, mk) ->
      List.iter
        (fun seed ->
          let spec = with_seed spec seed in
          let a = mk ?seed () and b = Exec_fault.session_plan_of_spec spec in
          for session = 0 to 63 do
            Alcotest.(check string)
              (Printf.sprintf "%s session=%d" spec session)
              (session_action a ~session)
              (session_action b ~session)
          done)
        seeds)
    [
      ( "oversize=34",
        fun ?seed () -> Exec_fault.session_plan ?seed ~oversize_pct:34 () );
      ( "disconnect=30,oversize=25",
        fun ?seed () ->
          Exec_fault.session_plan ?seed ~disconnect_pct:30 ~oversize_pct:25 () );
      ( "disconnect=100",
        fun ?seed () -> Exec_fault.session_plan ?seed ~disconnect_pct:100 () );
    ]

(* Every malformed spec is one [Invalid_argument] naming its parser. *)
let test_bad_specs () =
  let rejects parser name spec =
    match parser spec with
    | _ -> Alcotest.failf "%s accepted %S" name spec
    | exception Invalid_argument m ->
        Alcotest.(check bool)
          (Printf.sprintf "%S: %s" spec m)
          true
          (String.starts_with ~prefix:"Exec_fault." m)
  in
  List.iter
    (rejects Exec_fault.plan_of_spec "suite")
    [
      ""; "bogus"; "crash=40,bogus"; "crash=4,crash=5"; "crash=101";
      "crash=-1"; "crash"; "crash="; "crash=4.5"; "every=1"; "every,every";
      "oversize=34"; "disconnect-after=4096"; "stall-s=nan"; "stall-s=inf";
      "stall-s=-1"; "stall-s=x"; "seed=x"; "crash=40,"; ",crash=40";
      "retries=-1"; "retries=x"; "retries";
    ];
  List.iter
    (rejects Exec_fault.session_plan_of_spec "serve")
    [
      ""; "disconnect-after=-1"; "disconnect-after=1.5"; "crash=40"; "every";
      "stall=5"; "oversize"; "oversize=200"; "stall-s=nan"; "stall-s=-1";
      "seed=4,seed=4"; "retries=2";
    ];
  (* keys the specs no longer take: constructor arguments only *)
  let unknown parser spec =
    match parser spec with
    | _ -> Alcotest.failf "accepted %S" spec
    | exception Invalid_argument m ->
        let key = "unknown key" in
        let rec at i =
          i + String.length key <= String.length m
          && (String.sub m i (String.length key) = key || at (i + 1))
        in
        Alcotest.(check bool) (Printf.sprintf "%S: %s" spec m) true (at 0)
  in
  List.iter
    (unknown Exec_fault.plan_of_spec)
    [
      "crash=50,stall=25,stall-s=0.5,every,retries=3";
      "every,stall=60,crash=10,stall-s=2";
    ];
  List.iter
    (unknown Exec_fault.session_plan_of_spec)
    [
      "disconnect=30,stall-writer=20,oversize=25,stall-s=2.5";
      "disconnect-after=17,disconnect=100";
    ]

let () =
  Alcotest.run "fault"
    [
      ( "fault",
        [
          Alcotest.test_case "deadlock verdict" `Quick test_deadlock_verdict;
          Alcotest.test_case "fuel watchdog" `Quick test_fuel_watchdog;
          Alcotest.test_case "aborted warp counts the skips it reached" `Quick
            test_aborted_warp_skips;
          Alcotest.test_case "injector determinism" `Quick
            test_injector_deterministic;
          Alcotest.test_case "all threads quarantined" `Quick
            test_all_quarantined;
          Alcotest.test_case "20k bad threads quarantine in linear time"
            `Quick test_quarantine_linear;
          Alcotest.test_case "fuzz smoke (100 seeds)" `Quick test_fuzz_smoke;
          QCheck_alcotest.to_alcotest prop_resealed_pack;
          Alcotest.test_case "golden decision table" `Quick
            test_decision_table;
          Alcotest.test_case "plan percentages validated" `Quick
            test_plan_validation;
          Alcotest.test_case "fault specs decide like constructors" `Quick
            test_specs_decide_like_constructors;
          Alcotest.test_case "bad fault specs rejected" `Quick test_bad_specs;
        ] );
    ]
