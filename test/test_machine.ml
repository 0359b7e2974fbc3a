(* Tests for the MIMD machine: interpreter semantics, memory, scheduling,
   locks, tracing. *)

open Threadfuser_isa
open Threadfuser_prog
module Machine = Threadfuser_machine.Machine
module Memory = Threadfuser_machine.Memory
module Layout = Threadfuser_machine.Layout
module Event = Threadfuser_trace.Event
module Thread_trace = Threadfuser_trace.Thread_trace

let run_one body ~args =
  let prog = Program.assemble [ Build.func "f" body ] in
  let m = Machine.create prog in
  (m, Machine.run_func m ~fn:"f" ~args)

let test_arith () =
  let _, r =
    run_one
      Build.
        [
          mov (reg 0) (imm 6);
          mul (reg 0) (imm 7);
          sub (reg 0) (imm 2);
          ret;
        ]
      ~args:[]
  in
  Alcotest.(check int) "6*7-2" 40 r

let test_args_passed () =
  let _, r = run_one Build.[ add (reg 0) (reg 1); ret ] ~args:[ 30; 12 ] in
  Alcotest.(check int) "arg sum" 42 r

let test_loop_sum () =
  (* sum 0..9 *)
  let _, r =
    run_one
      Build.
        [
          mov (reg 0) (imm 0);
          for_up ~i:1 ~from_:(imm 0) ~below:(imm 10) [ add (reg 0) (reg 1) ];
          ret;
        ]
      ~args:[]
  in
  Alcotest.(check int) "sum" 45 r

let test_memory_roundtrip () =
  let _, r =
    run_one
      Build.
        [
          mov (reg 1) (imm 0x20000);
          mov (mem ~base:1 ~disp:8 ()) (imm 1234);
          mov (reg 0) (mem ~base:1 ~disp:8 ());
          ret;
        ]
      ~args:[]
  in
  Alcotest.(check int) "store/load" 1234 r

let test_width_truncation () =
  let _, r =
    run_one
      Build.
        [
          mov (reg 1) (imm 0x20000);
          mov (mem ~base:1 ()) (imm 0x1ff) ~w:Width.W1;
          mov (reg 0) (mem ~base:1 ()) ~w:Width.W1;
          ret;
        ]
      ~args:[]
  in
  Alcotest.(check int) "byte store truncates" 0xff r

let test_widths_w2_w4 () =
  let _, r =
    run_one
      Build.
        [
          mov (reg 1) (imm 0x20000);
          mov (mem ~base:1 ()) (imm 0x123456789) ~w:Width.W4;
          mov (reg 0) (mem ~base:1 ()) ~w:Width.W4;
          ret;
        ]
      ~args:[]
  in
  Alcotest.(check int) "w4 zero-extends" 0x23456789 r

let test_lea_and_indexing () =
  let _, r =
    run_one
      Build.
        [
          mov (reg 1) (imm 0x20000);
          mov (reg 2) (imm 3);
          lea 0 (mem ~base:1 ~index:2 ~scale:8 ~disp:16 ());
          ret;
        ]
      ~args:[]
  in
  Alcotest.(check int) "lea" (0x20000 + 24 + 16) r

let test_div_by_zero_defined () =
  let _, r =
    run_one
      Build.[ mov (reg 0) (imm 7); div (reg 0) (imm 0); ret ]
      ~args:[]
  in
  Alcotest.(check int) "div by zero is 0" 0 r

let test_cmov () =
  let _, r =
    run_one
      Build.
        [
          mov (reg 0) (imm 1);
          cmp (reg 0) (imm 5);
          cmov Cond.Lt (reg 0) (imm 99);
          cmov Cond.Gt (reg 0) (imm 11);
          ret;
        ]
      ~args:[]
  in
  Alcotest.(check int) "cmov taken then not" 99 r

let test_atomic_counter_two_threads () =
  let counter = 0x20000 in
  let prog =
    Program.assemble
      [
        Build.(
          func "worker"
            [
              mov (reg 1) (imm counter);
              atomic_rmw Op.Add (mem ~base:1 ()) (imm 1);
              ret;
            ]);
      ]
  in
  let m = Machine.create prog in
  let _ = Machine.run_workers m ~worker:"worker" ~args:[| []; []; []; [] |] in
  Alcotest.(check int) "atomic adds" 4 (Memory.load_i64 (Machine.memory m) counter)

let lock_addr = 0x30000

let counter_addr = 0x30100

let locked_increment =
  (* non-atomic read-modify-write protected by a lock *)
  Build.(
    func "worker"
      [
        lock_acquire (imm lock_addr);
        mov (reg 1) (imm counter_addr);
        mov (reg 2) (mem ~base:1 ());
        add (reg 2) (imm 1);
        mov (mem ~base:1 ()) (reg 2);
        lock_release (imm lock_addr);
        ret;
      ])

(* quantum = 1 forces interleaving at block granularity so locks actually
   contend *)
let contended_config = { Machine.default_config with quantum = 1 }

let test_lock_mutual_exclusion () =
  let prog = Program.assemble [ locked_increment ] in
  let m = Machine.create ~config:contended_config prog in
  let n = 8 in
  let r = Machine.run_workers m ~worker:"worker" ~args:(Array.make n []) in
  Alcotest.(check int) "all increments" n
    (Memory.load_i64 (Machine.memory m) counter_addr);
  (* every thread logged exactly one acquire and one release *)
  Array.iter
    (fun t ->
      let s = Thread_trace.stats t in
      Alcotest.(check int) "lock ops" 2 s.Thread_trace.lock_ops)
    r.Machine.traces

let test_lock_spin_recorded () =
  let prog = Program.assemble [ locked_increment ] in
  let m = Machine.create ~config:contended_config prog in
  let r = Machine.run_workers m ~worker:"worker" ~args:(Array.make 4 []) in
  let total_spin =
    Array.fold_left
      (fun acc t -> acc + (Thread_trace.stats t).Thread_trace.skipped_spin)
      0 r.Machine.traces
  in
  Alcotest.(check bool) "some spin recorded" true (total_spin > 0)

let test_deadlock_detected () =
  let prog =
    Program.assemble
      [ Build.(func "worker" [ lock_acquire (imm 0x40000); ret ]) ]
  in
  let m = Machine.create prog in
  (* thread 0 takes the lock and returns without releasing; thread 1 blocks
     forever *)
  match Machine.run_workers m ~worker:"worker" ~args:[| []; [] |] with
  | exception Machine.Machine_error _ -> ()
  | _ -> Alcotest.fail "expected deadlock"

let test_io_skip_event () =
  let _m, _ = run_one Build.[ io_in (imm 500); ret ] ~args:[] in
  let prog = Program.assemble [ Build.func "f" Build.[ io_in (imm 500); ret ] ] in
  let m = Machine.create prog in
  let r = Machine.run_workers m ~worker:"f" ~args:[| [] |] in
  let s = Thread_trace.stats r.Machine.traces.(0) in
  Alcotest.(check int) "io skipped" 500 s.Thread_trace.skipped_io

let test_trace_structure_call () =
  let prog =
    Program.assemble
      [
        Build.func "leaf" Build.[ mov (reg 0) (imm 5); ret ];
        Build.func "root" Build.[ call "leaf"; ret ];
      ]
  in
  let m = Machine.create prog in
  let r = Machine.run_workers m ~worker:"root" ~args:[| [] |] in
  let kinds =
    Array.to_list (Thread_trace.to_events r.Machine.traces.(0))
    |> List.map (function
         | Event.Block _ -> "B"
         | Event.Call _ -> "C"
         | Event.Return -> "R"
         | Event.Lock_acq _ -> "L"
         | Event.Lock_rel _ -> "U"
         | Event.Barrier _ -> "Y"
         | Event.Skip _ -> "S")
  in
  Alcotest.(check (list string)) "event shape" [ "B"; "C"; "B"; "R"; "B"; "R" ] kinds

let test_memory_accesses_recorded () =
  let prog =
    Program.assemble
      [
        Build.(
          func "f"
            [
              mov (reg 1) (imm 0x20000);
              mov (mem ~base:1 ()) (imm 7);
              add (reg 2) (mem ~base:1 ());
              ret;
            ]);
      ]
  in
  let m = Machine.create prog in
  let r = Machine.run_workers m ~worker:"f" ~args:[| [] |] in
  let accesses =
    Array.to_list (Thread_trace.to_events r.Machine.traces.(0))
    |> List.concat_map (function
         | Event.Block b -> Array.to_list b.accesses
         | _ -> [])
  in
  Alcotest.(check int) "access count" 2 (List.length accesses);
  let stores = List.filter (fun (a : Event.access) -> a.is_store) accesses in
  Alcotest.(check int) "one store" 1 (List.length stores)

let test_stack_isolation () =
  (* each thread pushes to its own stack region via sp *)
  let prog =
    Program.assemble
      [
        Build.(
          func "worker"
            [
              sub sp (imm 8);
              mov (mem ~base:15 ()) (reg 0);
              mov (reg 0) (mem ~base:15 ());
              add sp (imm 8);
              ret;
            ]);
      ]
  in
  let m = Machine.create prog in
  let r =
    Machine.run_workers m ~worker:"worker" ~args:[| [ 10 ]; [ 20 ]; [ 30 ] |]
  in
  Array.iteri
    (fun i regs ->
      Alcotest.(check int)
        (Printf.sprintf "thread %d result" i)
        ((i + 1) * 10)
        regs.(Reg.ret))
    r.Machine.final_regs

let test_determinism () =
  let run () =
    let prog = Program.assemble [ locked_increment ] in
    let m = Machine.create prog in
    let r = Machine.run_workers m ~worker:"worker" ~args:(Array.make 6 []) in
    Array.map (fun (t : Thread_trace.t) -> Array.length t.events) r.Machine.traces
  in
  Alcotest.(check (array int)) "same event counts" (run ()) (run ())

let test_untraced_mode_same_semantics () =
  (* trace = false records nothing but computes the same results *)
  let prog = Program.assemble [ locked_increment ] in
  let run trace =
    let m =
      Machine.create ~config:{ contended_config with Machine.trace } prog
    in
    let r = Machine.run_workers m ~worker:"worker" ~args:(Array.make 4 []) in
    (Memory.load_i64 (Machine.memory m) counter_addr, r.Machine.traces)
  in
  let v_on, traces_on = run true in
  let v_off, traces_off = run false in
  Alcotest.(check int) "same result" v_on v_off;
  Alcotest.(check bool) "traced has events" true
    (Array.exists (fun (t : Thread_trace.t) -> Array.length t.events > 0) traces_on);
  Alcotest.(check bool) "untraced is empty" true
    (Array.for_all (fun (t : Thread_trace.t) -> Array.length t.events = 0) traces_off)

let test_runaway_detected () =
  let prog =
    Program.assemble [ Build.func "f" Build.[ seq [ forever [ add (reg 1) (imm 1) ] ] ] ]
  in
  let config = { Machine.default_config with max_instrs = 10_000 } in
  let m = Machine.create ~config prog in
  match Machine.run_workers m ~worker:"f" ~args:[| [] |] with
  | exception Machine.Machine_error _ -> ()
  | _ -> Alcotest.fail "expected budget error"


(* -- broader instruction semantics ----------------------------------------- *)

let expr_result body = snd (run_one Build.(body @ [ ret ]) ~args:[])

let test_shifts () =
  Alcotest.(check int) "shl" 40
    (expr_result Build.[ mov (reg 0) (imm 5); shl (reg 0) (imm 3) ]);
  Alcotest.(check int) "shr logical" 5
    (expr_result Build.[ mov (reg 0) (imm 40); shr (reg 0) (imm 3) ]);
  Alcotest.(check int) "sar arithmetic" (-5)
    (expr_result Build.[ mov (reg 0) (imm (-40)); sar (reg 0) (imm 3) ])

let test_min_max_rem () =
  Alcotest.(check int) "min" 3
    (expr_result Build.[ mov (reg 0) (imm 7); min_ (reg 0) (imm 3) ]);
  Alcotest.(check int) "max" 7
    (expr_result Build.[ mov (reg 0) (imm 7); max_ (reg 0) (imm 3) ]);
  Alcotest.(check int) "rem" 1
    (expr_result Build.[ mov (reg 0) (imm 7); rem (reg 0) (imm 3) ]);
  Alcotest.(check int) "rem by zero" 0
    (expr_result Build.[ mov (reg 0) (imm 7); rem (reg 0) (imm 0) ])

let test_unops () =
  Alcotest.(check int) "neg" (-9)
    (expr_result Build.[ mov (reg 0) (imm 9); neg (reg 0) ]);
  Alcotest.(check int) "not" (lnot 9)
    (expr_result Build.[ mov (reg 0) (imm 9); not_ (reg 0) ]);
  Alcotest.(check int) "fsqrt exact" 12
    (expr_result Build.[ mov (reg 0) (imm 144); fsqrt (reg 0) ]);
  Alcotest.(check int) "fsqrt floor" 12
    (expr_result Build.[ mov (reg 0) (imm 168); fsqrt (reg 0) ])

let test_w2_memory () =
  Alcotest.(check int) "w2 truncation" 0x3456
    (expr_result
       Build.
         [
           mov (reg 1) (imm 0x20000);
           mov ~w:Width.W2 (mem ~base:1 ()) (imm 0x123456);
           mov ~w:Width.W2 (reg 0) (mem ~base:1 ());
         ])

let test_lea_absolute () =
  Alcotest.(check int) "lea without base" 0x1234
    (expr_result Build.[ lea 0 (mem ~disp:0x1234 ()) ])

let test_atomic_variants () =
  let run op init arg =
    let prog =
      Program.assemble
        [
          Build.(
            func "f"
              [
                mov (reg 1) (imm 0x20000);
                mov (mem ~base:1 ()) (imm init);
                atomic_rmw op (mem ~base:1 ()) (imm arg);
                mov (reg 0) (mem ~base:1 ());
                ret;
              ]);
        ]
    in
    let m = Machine.create prog in
    Machine.run_func m ~fn:"f" ~args:[]
  in
  Alcotest.(check int) "atomic max" 9 (run Op.Max 9 4);
  Alcotest.(check int) "atomic min" 4 (run Op.Min 9 4);
  Alcotest.(check int) "atomic or" 0b111 (run Op.Or 0b101 0b010);
  Alcotest.(check int) "atomic xor" 0b110 (run Op.Xor 0b101 0b011)

let test_store_to_immediate_rejected () =
  let prog =
    Program.assemble
      [ Build.(func "f" [ seq [ ins (Instr.Mov (Width.W8, imm 1, reg 0)) ]; ret ]) ]
  in
  let m = Machine.create prog in
  match Machine.run_func m ~fn:"f" ~args:[] with
  | exception Machine.Machine_error _ -> ()
  | _ -> Alcotest.fail "expected error"

let test_cmov_to_memory_rejected () =
  let prog =
    Program.assemble
      [
        Build.(
          func "f"
            [
              cmp (reg 0) (imm 0);
              seq [ ins (Instr.Cmov (Cond.Eq, mem ~disp:0x20000 (), reg 0)) ];
              ret;
            ]);
      ]
  in
  let m = Machine.create prog in
  match Machine.run_func m ~fn:"f" ~args:[] with
  | exception Machine.Machine_error _ -> ()
  | _ -> Alcotest.fail "expected error"

let test_call_depth_limit () =
  let prog =
    Program.assemble [ Build.(func "f" [ call "f"; ret ]) ]
  in
  let config = { Machine.default_config with max_call_depth = 64 } in
  let m = Machine.create ~config prog in
  match Machine.run_func m ~fn:"f" ~args:[] with
  | exception Machine.Machine_error _ -> ()
  | _ -> Alcotest.fail "expected call-depth error"

let test_mul_overflow_wraps () =
  (* 63-bit native ints wrap silently, like hardware *)
  let v =
    expr_result
      Build.[ mov (reg 0) (imm max_int); mul (reg 0) (imm 3); add (reg 0) (imm 0) ]
  in
  Alcotest.(check bool) "wrapped" true (v <> 3 * 1 && v = max_int * 3)

(* The compiled machine allocates nothing per instruction: a terminator
   reports through the thread's fields, page lookups hit a cache, and
   calls push ints.  What is left is per thread (registers, an empty log)
   and per page, so an untraced pigz run stays below 0.01 minor words per
   executed instruction; boxing each taken branch's outcome costs about
   0.33. *)
let test_untraced_run_allocation () =
  let module W = Threadfuser_workloads.Workload in
  let module Registry = Threadfuser_workloads.Registry in
  let w = Registry.find "pigz" in
  let v = w.W.cpu in
  let prog = W.link ~alloc:w.W.alloc v Threadfuser_compiler.Compiler.O1 in
  let m =
    Machine.create ~config:{ W.machine_config with Machine.trace = false } prog
  in
  Threadfuser_workloads.Rtlib.init (Machine.memory m);
  v.W.setup (Machine.memory m) ~scale:1;
  let n = w.W.default_threads in
  let args = Array.init n (fun tid -> v.W.args ~tid ~n ~scale:1) in
  let before = Gc.minor_words () in
  let r = Machine.run_workers m ~worker:v.W.worker ~args in
  let words = Gc.minor_words () -. before in
  let per_instr = words /. float r.Machine.instrs_executed in
  if per_instr > 0.01 then
    Alcotest.failf "%.4f minor words per instruction (%.0f over %d)" per_instr
      words r.Machine.instrs_executed

let () =
  Alcotest.run "machine"
    [
      ( "interp",
        [
          Alcotest.test_case "arith" `Quick test_arith;
          Alcotest.test_case "args" `Quick test_args_passed;
          Alcotest.test_case "loop sum" `Quick test_loop_sum;
          Alcotest.test_case "memory roundtrip" `Quick test_memory_roundtrip;
          Alcotest.test_case "width truncation" `Quick test_width_truncation;
          Alcotest.test_case "w4 zero-extend" `Quick test_widths_w2_w4;
          Alcotest.test_case "lea" `Quick test_lea_and_indexing;
          Alcotest.test_case "div by zero" `Quick test_div_by_zero_defined;
          Alcotest.test_case "cmov" `Quick test_cmov;
        ] );
      ( "threads",
        [
          Alcotest.test_case "atomic counter" `Quick test_atomic_counter_two_threads;
          Alcotest.test_case "lock mutual exclusion" `Quick test_lock_mutual_exclusion;
          Alcotest.test_case "spin recorded" `Quick test_lock_spin_recorded;
          Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
          Alcotest.test_case "stack isolation" `Quick test_stack_isolation;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "runaway detected" `Quick test_runaway_detected;
          Alcotest.test_case "untraced mode" `Quick test_untraced_mode_same_semantics;
          Alcotest.test_case "untraced pigz allocation" `Quick test_untraced_run_allocation;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "min/max/rem" `Quick test_min_max_rem;
          Alcotest.test_case "unops" `Quick test_unops;
          Alcotest.test_case "w2 memory" `Quick test_w2_memory;
          Alcotest.test_case "lea absolute" `Quick test_lea_absolute;
          Alcotest.test_case "atomic variants" `Quick test_atomic_variants;
          Alcotest.test_case "store to imm" `Quick test_store_to_immediate_rejected;
          Alcotest.test_case "cmov to mem" `Quick test_cmov_to_memory_rejected;
          Alcotest.test_case "call depth" `Quick test_call_depth_limit;
          Alcotest.test_case "mul wraps" `Quick test_mul_overflow_wraps;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "io skip" `Quick test_io_skip_event;
          Alcotest.test_case "call structure" `Quick test_trace_structure_call;
          Alcotest.test_case "accesses recorded" `Quick test_memory_accesses_recorded;
        ] );
    ]
