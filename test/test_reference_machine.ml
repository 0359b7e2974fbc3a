(* Differential testing of the MIMD machine against a reference
   interpreter.

   The production machine (lib/machine/machine.ml) compiles every basic
   block once into closures specialised on operand kind, width and ALU
   op, and a terminator reports its outcome through the thread's fields.
   The reference below is a plain AST interpreter: [exec_instr] matches
   on each instruction every time it runs, [eval_src] and [store_dst] on
   each operand, and it returns a boxed outcome per instruction.  It
   keeps its own byte-map memory, and it records events as [Event.t]
   values.

   A QCheck property runs random single-thread programs through both
   and compares the final registers, every memory byte either side
   touched, the trace events (accesses in order) and the error, if any.
   The programs cover every instruction kind with every operand kind and
   width: loads and stores at W1/W2/W4/W8 (page-crossing and negative
   addresses among them), Cmov, Atomic_rmw, Io with a memory operand,
   Min/Max, Div/Rem by zero and shifts, plus forward branches, calls,
   locks and a barrier.  The registry workloads do not reach every
   specialised path, so this property is what pins them. *)

open Threadfuser_isa
open Threadfuser_prog
module Machine = Threadfuser_machine.Machine
module Memory = Threadfuser_machine.Memory
module Layout = Threadfuser_machine.Layout
module Event = Threadfuser_trace.Event
module Thread_trace = Threadfuser_trace.Thread_trace

(* ---- the reference: one thread, an AST interpreter ---------------------- *)

exception Ref_error of string

let errf fmt = Fmt.kstr (fun s -> raise (Ref_error s)) fmt

type st = {
  regs : int array;
  mutable fa : int;
  mutable fb : int;
  bytes : (int, int) Hashtbl.t; (* written bytes; the rest read 0 *)
  mutable accs : Event.access list; (* the executing block's, newest first *)
  mutable events : Event.t list; (* newest first *)
  locks : (int, unit) Hashtbl.t; (* held locks *)
}

(* The same checks as [Memory]: a negative address, or an access whose
   last byte wraps past [max_int], raises. *)
let check addr n =
  if addr < 0 || addr + n - 1 < 0 then invalid_arg "Memory: negative address"

let load st width addr =
  let n = Width.bytes width in
  check addr n;
  let v = ref 0 in
  for k = n - 1 downto 0 do
    let b = Option.value ~default:0 (Hashtbl.find_opt st.bytes (addr + k)) in
    v := (!v lsl 8) lor b
  done;
  !v

(* A W8 store inside one page writes the 64-bit sign extension of the
   63-bit value, a page-crossing one its 63 bits zero-extended, as
   [Memory] does: they differ only in the top bit of byte 7. *)
let store st width addr v =
  let n = Width.bytes width in
  check addr n;
  let crosses = (addr land 4095) + n > 4096 in
  for k = 0 to n - 1 do
    let b = if crosses then v lsr (8 * k) else v asr (8 * k) in
    Hashtbl.replace st.bytes (addr + k) (b land 0xff)
  done

let trunc width v =
  match width with
  | Width.W8 -> v
  | Width.W4 -> v land 0xffffffff
  | Width.W2 -> v land 0xffff
  | Width.W1 -> v land 0xff

let mem_addr st (m : Operand.mem) =
  let base = match m.base with Some r -> st.regs.(r) | None -> 0 in
  let index = match m.index with Some (r, s) -> st.regs.(r) * s | None -> 0 in
  base + index + m.disp

let record st ioff addr size is_store =
  st.accs <- { Event.ioff; addr; size; is_store } :: st.accs

let eval_src st ioff width (op : Operand.t) =
  match op with
  | Operand.Reg r -> trunc width st.regs.(r)
  | Operand.Imm n -> trunc width n
  | Operand.Mem mm ->
      let addr = mem_addr st mm in
      record st ioff addr (Width.bytes width) false;
      load st width addr

let store_dst st ioff width (op : Operand.t) v =
  match op with
  | Operand.Reg r -> st.regs.(r) <- trunc width v
  | Operand.Mem mm ->
      let addr = mem_addr st mm in
      record st ioff addr (Width.bytes width) true;
      store st width addr v
  | Operand.Imm _ -> errf "thread 0: store to immediate operand"

let lock_target st (op : Operand.t) =
  match op with
  | Operand.Mem mm -> mem_addr st mm
  | Operand.Reg r -> st.regs.(r)
  | Operand.Imm n -> n

type outcome =
  | Next
  | Goto of int
  | Do_call of int
  | Do_ret
  | Do_lock of int
  | Do_unlock of int
  | Do_io of int
  | Do_barrier of int
  | Do_halt

let exec_instr st ioff (instr : (int, int) Instr.t) : outcome =
  match instr with
  | Instr.Mov (w, dst, src) ->
      let v = eval_src st ioff w src in
      store_dst st ioff w dst v;
      Next
  | Instr.Cmov (c, dst, src) ->
      let v = eval_src st ioff Width.W8 src in
      (match dst with
      | Operand.Reg r -> if Cond.eval c st.fa st.fb then st.regs.(r) <- v
      | Operand.Imm _ | Operand.Mem _ ->
          errf "thread 0: cmov destination must be a register");
      Next
  | Instr.Lea (r, mm) ->
      st.regs.(r) <- mem_addr st mm;
      Next
  | Instr.Binop (op, w, dst, src) ->
      let b = eval_src st ioff w src in
      let a = eval_src st ioff w dst in
      store_dst st ioff w dst (trunc w (Op.eval_binop op a b));
      Next
  | Instr.Unop (op, w, dst) ->
      let a = eval_src st ioff w dst in
      store_dst st ioff w dst (trunc w (Op.eval_unop op a));
      Next
  | Instr.Cmp (w, x, y) ->
      st.fa <- eval_src st ioff w x;
      st.fb <- eval_src st ioff w y;
      Next
  | Instr.Jcc (c, target) ->
      if Cond.eval c st.fa st.fb then Goto target else Next
  | Instr.Jmp target -> Goto target
  | Instr.Call f -> Do_call f
  | Instr.Ret -> Do_ret
  | Instr.Lock_acquire op -> Do_lock (lock_target st op)
  | Instr.Lock_release op -> Do_unlock (lock_target st op)
  | Instr.Atomic_rmw (op, w, mm, src) ->
      let b = eval_src st ioff w src in
      let addr = mem_addr st mm in
      record st ioff addr (Width.bytes w) false;
      let a = load st w addr in
      record st ioff addr (Width.bytes w) true;
      store st w addr (trunc w (Op.eval_binop op a b));
      Next
  | Instr.Io (_, cost) -> Do_io (eval_src st ioff Width.W8 cost)
  | Instr.Barrier op -> Do_barrier (lock_target st op)
  | Instr.Halt -> Do_halt

let emit st e = st.events <- e :: st.events

(* Run [fn] on one thread to completion, block by block, as the machine's
   scheduler does for a lone thread (the call-depth and budget checks
   never fire on these programs). *)
let run_reference prog ~fn ~args ~seed =
  let st =
    {
      regs = Array.make Reg.count 0;
      fa = 0;
      fb = 0;
      bytes = Hashtbl.create 64;
      accs = [];
      events = [];
      locks = Hashtbl.create 4;
    }
  in
  List.iter (fun (a, v) -> store st Width.W8 a v) seed;
  List.iteri (fun i v -> st.regs.(Reg.arg i) <- v) args;
  st.regs.(Reg.sp) <- Layout.stack_top 0;
  st.regs.(Reg.tls) <- Layout.tls_base 0;
  let stack = ref [] and fid = ref (Program.find_func prog fn) and bid = ref 0 in
  let running = ref true in
  while !running do
    let f = prog.Program.funcs.(!fid) in
    if !bid >= Array.length f.Program.blocks then
      errf "thread 0: fell off the end of %s" f.Program.name;
    let b = f.Program.blocks.(!bid) in
    let n = Array.length b.Program.instrs in
    let outcome = ref Next in
    Array.iteri (fun ioff i -> outcome := exec_instr st ioff i) b.Program.instrs;
    emit st
      (Event.Block
         {
           func = !fid;
           block = !bid;
           n_instr = n;
           accesses = Array.of_list (List.rev st.accs);
         });
    st.accs <- [];
    match !outcome with
    | Next -> incr bid
    | Goto t -> bid := t
    | Do_call callee ->
        emit st (Event.Call callee);
        stack := (!fid, !bid + 1) :: !stack;
        fid := callee;
        bid := 0
    | Do_ret -> (
        emit st Event.Return;
        match !stack with
        | [] -> running := false
        | (f, b) :: rest ->
            stack := rest;
            fid := f;
            bid := b)
    | Do_halt -> running := false
    | Do_io cost ->
        if cost > 0 then emit st (Event.Skip { reason = Event.Io; n_instr = cost });
        incr bid
    | Do_barrier a ->
        (* a lone thread is the whole team: it passes straight through *)
        emit st (Event.Barrier a);
        incr bid
    | Do_lock a ->
        if Hashtbl.mem st.locks a then
          errf "thread 0: recursive acquisition of lock 0x%x" a;
        Hashtbl.replace st.locks a ();
        emit st (Event.Lock_acq a);
        incr bid
    | Do_unlock a ->
        if not (Hashtbl.mem st.locks a) then
          errf "thread 0: released lock 0x%x it does not hold" a;
        Hashtbl.remove st.locks a;
        emit st (Event.Lock_rel a);
        incr bid
  done;
  st

(* ---- the comparison ---------------------------------------------------- *)

(* Both sides start from the same data words: one straddles a page
   boundary (0x20ff8 + 8 crosses into 0x21000 for any offset past 0). *)
let seed = [ (0x20000, 0x0102030405060708); (0x20ff8, -2); (0x2fff8, 0x7fff) ]

type view = {
  regs : int array;
  events : Event.t list;
  bytes : (int * int) list; (* (address, byte) over every byte compared *)
}

let error_of = function
  | Machine.Machine_error s | Ref_error s -> "error: " ^ s
  | Invalid_argument s -> "invalid_argument: " ^ s
  | e -> raise e

(* The bytes to compare: every byte the reference wrote and every byte of
   every access the machine traced (which covers every machine store). *)
let addresses (rst : st) (events : Event.t list) =
  let s = Hashtbl.create 64 in
  Hashtbl.iter (fun a _ -> Hashtbl.replace s a ()) rst.bytes;
  List.iter
    (function
      | Event.Block b ->
          Array.iter
            (fun (a : Event.access) ->
              for k = 0 to a.size - 1 do
                if a.addr + k >= 0 then Hashtbl.replace s (a.addr + k) ()
              done)
            b.accesses
      | _ -> ())
    events;
  List.sort compare (Hashtbl.fold (fun a () acc -> a :: acc) s [])

let run_machine prog =
  let m = Machine.create prog in
  let mem = Machine.memory m in
  List.iter (fun (a, v) -> Memory.store_i64 mem a v) seed;
  let r = Machine.run_workers m ~worker:"f" ~args:[| [] |] in
  (mem, r.Machine.final_regs.(0), Array.to_list (Thread_trace.to_events r.Machine.traces.(0)))

(* [Ok (machine view, reference view)] or the two errors. *)
let compare_runs prog =
  let machine =
    match run_machine prog with v -> Ok v | exception e -> Error (error_of e)
  in
  let reference =
    match run_reference prog ~fn:"f" ~args:[] ~seed with
    | st -> Ok st
    | exception e -> Error (error_of e)
  in
  match (machine, reference) with
  | Ok (mem, regs, events), Ok rst ->
      let addrs = addresses rst events in
      let mview =
        { regs; events; bytes = List.map (fun a -> (a, Memory.load_byte mem a)) addrs }
      in
      let rview =
        {
          regs = rst.regs;
          events = List.rev rst.events;
          bytes =
            List.map
              (fun a ->
                (a, Option.value ~default:0 (Hashtbl.find_opt rst.bytes a)))
              addrs;
        }
      in
      `Both (mview, rview)
  | Error a, Error b -> `Errors (a, b)
  | Ok _, Error e -> `Mismatch ("only the reference failed: " ^ e)
  | Error e, Ok _ -> `Mismatch ("only the machine failed: " ^ e)

(* ---- random programs ---------------------------------------------------- *)

(* r0..r5 are data registers and the only register destinations; r6 and
   r7 hold base addresses (r6 just below a page boundary) and r8 a small
   index, set by the prologue and never written after it. *)
let prologue =
  Build.[ mov (reg 6) (imm 0x20ffc); mov (reg 7) (imm 0x30000); mov (reg 8) (imm 3) ]

let gen_width = QCheck.Gen.oneofl [ Width.W1; Width.W2; Width.W4; Width.W8 ]

let gen_imm =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          oneofl
            [
              0; 1; -1; 2; 7; 63; 64; 255; 256; 0xffff; 0x10000; 0xffffffff;
              0x1_0000_0000; max_int; min_int; -4096;
            ] );
        (1, int);
      ])

let gen_data_reg = QCheck.Gen.int_range 0 5

(* [hazard] programs may also take operands that raise when they
   execute: a negative or wrapping address, a store to an immediate. *)
let gen_mem ~hazard =
  QCheck.Gen.(
    frequency
      ([
         (* base only: around r6's page boundary, or r7's page *)
         ( 6,
           map2
             (fun b d -> Operand.mem ~base:b ~disp:d ())
             (oneofl [ 6; 7 ])
             (int_range (-16) 16) );
         (* base + index * scale *)
         ( 3,
           map3
             (fun b s d -> Operand.mem ~base:b ~index:(8, s) ~disp:d ())
             (oneofl [ 6; 7 ])
             (oneofl [ 1; 2; 4; 8 ])
             (int_range (-8) 8) );
         (* absolute, in the seeded page *)
         (2, map (fun d -> Operand.mem ~disp:(0x20000 + d) ()) (int_range 0 64));
         (* index only, scaled *)
         ( 1,
           map
             (fun s -> Operand.mem ~index:(8, s) ~disp:0x20100 ())
             (oneofl [ 1; 2; 4; 8 ]) );
       ]
      @
      if hazard then
        [
          (* a data register as the base: any value, negative included *)
          ( 1,
            map2
              (fun r d -> Operand.mem ~base:r ~disp:d ())
              gen_data_reg (int_range (-8) 8) );
          (* negative *)
          (1, map (fun d -> Operand.mem ~disp:d ()) (int_range (-16) (-1)));
          (* page-crossing at the top of the address space: wraps *)
          (1, return (Operand.mem ~disp:(max_int - 2) ()));
        ]
      else []))

let gen_src ~hazard =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun r -> Operand.Reg r) (int_range 0 8));
        (3, map (fun n -> Operand.Imm n) gen_imm);
        (3, map (fun m -> Operand.Mem m) (gen_mem ~hazard));
      ])

(* Mostly registers, often memory; an immediate (an error) rarely. *)
let gen_dst ~hazard =
  QCheck.Gen.(
    frequency
      ([
         (6, map (fun r -> Operand.Reg r) gen_data_reg);
         (3, map (fun m -> Operand.Mem m) (gen_mem ~hazard));
       ]
      @ if hazard then [ (1, map (fun n -> Operand.Imm n) gen_imm) ] else []))

(* The assembler allows one memory operand: a second becomes a register. *)
let one_mem dst src =
  if Operand.is_mem dst && Operand.is_mem src then (dst, Operand.Reg 1) else (dst, src)

let gen_binop =
  QCheck.Gen.oneofl
    Op.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Sar; Min; Max; Fadd; Fsub; Fmul; Fdiv ]

let gen_cond = QCheck.Gen.oneofl Cond.[ Eq; Ne; Lt; Le; Gt; Ge ]

(* One straight-line instruction (a fragment of one or two). *)
let gen_straight ~hazard : Build.code QCheck.Gen.t =
  let gen_mem = gen_mem ~hazard
  and gen_src = gen_src ~hazard
  and gen_dst = gen_dst ~hazard in
  QCheck.Gen.(
    frequency
      [
        ( 4,
          map3
            (fun w d s ->
              let d, s = one_mem d s in
              Build.ins (Instr.Mov (w, d, s)))
            gen_width gen_dst gen_src );
        ( 2,
          map3
            (fun c d s ->
              let d, s = one_mem d s in
              Build.ins (Instr.Cmov (c, d, s)))
            gen_cond
            (frequency
               ((8, map (fun r -> Operand.Reg r) gen_data_reg)
               :: (if hazard then [ (1, gen_dst) ] else [])))
            gen_src );
        (1, map2 (fun r m -> Build.ins (Instr.Lea (r, m))) gen_data_reg gen_mem);
        ( 5,
          map3
            (fun (op, w) d s ->
              let d, s = one_mem d s in
              Build.ins (Instr.Binop (op, w, d, s)))
            (pair gen_binop gen_width) gen_dst gen_src );
        ( 1,
          map3
            (fun op w d -> Build.ins (Instr.Unop (op, w, d)))
            (oneofl Op.[ Neg; Not; Fsqrt ])
            gen_width gen_dst );
        ( 2,
          map3
            (fun w a b ->
              let a, b = one_mem a b in
              Build.ins (Instr.Cmp (w, a, b)))
            gen_width gen_src gen_src );
        ( 2,
          map3
            (fun (op, w) m s ->
              let s = if Operand.is_mem s then Operand.Reg 2 else s in
              Build.ins (Instr.Atomic_rmw (op, w, m, s)))
            (pair gen_binop gen_width) gen_mem gen_src );
      ])

(* A block-ending item: the machine's terminators, a lone-thread lock
   pair and a call into [g]. *)
let gen_terminator ~hazard : Build.code QCheck.Gen.t =
  let gen_mem = gen_mem ~hazard and gen_src = gen_src ~hazard in
  QCheck.Gen.(
    frequency
      [
        (3, map (fun s -> Build.ins (Instr.Io (Instr.In, s))) gen_src);
        (1, map (fun s -> Build.ins (Instr.Io (Instr.Out, s))) gen_src);
        (2, return Build.(call "g"));
        ( 1,
          map
            (fun m ->
              let op = Operand.Mem m in
              Build.(seq [ lock_acquire op; add (reg 0) (imm 1); lock_release op ]))
            gen_mem );
        (1, map (fun n -> Build.(seq [ lock_acquire (imm n); lock_release (imm n) ])) gen_imm);
        (1, map (fun s -> Build.barrier s) gen_src);
      ])

(* [n] segments, each a run of straight-line code, maybe a terminator
   and maybe a forward branch to a later segment's label; the function
   ends with [ret] or [halt].  One program in four is a hazard program. *)
let gen_program =
  QCheck.Gen.(
    int_range 1 6 >>= fun n ->
    frequency [ (3, return false); (1, return true) ] >>= fun hazard ->
    let gen_straight = gen_straight ~hazard
    and gen_terminator = gen_terminator ~hazard in
    let label i = Printf.sprintf "L%d" i in
    let segment i =
      list_size (int_range 0 6) gen_straight >>= fun body ->
      opt gen_terminator >>= fun term ->
      opt (pair gen_cond (int_range (i + 1) n)) >>= fun br ->
      return
        (Build.label (label i)
        :: body
        @ Option.to_list term
        @ (match br with Some (c, j) -> [ Build.jcc c (label j) ] | None -> []))
    in
    flatten_l (List.init n segment) >>= fun segs ->
    oneofl [ Build.ret; Build.halt ] >>= fun tail ->
    let f = Build.func "f" (prologue @ List.concat segs @ [ Build.label (label n); tail ]) in
    let g =
      Build.(
        func "g"
          [ add (reg 0) (imm 5); mov ~w:Width.W4 (mem ~base:7 ~disp:8 ()) (reg 0); ret ])
    in
    return [ f; g ])

let print_program surface =
  match Program.assemble surface with
  | p -> Fmt.str "%a" Program.pp p
  | exception Program.Assembly_error e -> "assembly error: " ^ e

let prop_machine_is_reference =
  QCheck.Test.make ~name:"compiled machine = AST reference interpreter" ~count:2000
    (QCheck.make ~print:print_program gen_program)
    (fun surface ->
      let prog = Program.assemble surface in
      match compare_runs prog with
      | `Both (m, r) ->
          if m.regs <> r.regs then QCheck.Test.fail_report "registers differ";
          if m.events <> r.events then
            QCheck.Test.fail_reportf "events differ:@.machine %a@.reference %a"
              Fmt.(list ~sep:sp Event.pp) m.events
              Fmt.(list ~sep:sp Event.pp) r.events;
          List.iter2
            (fun (a, x) (_, y) ->
              if x <> y then
                QCheck.Test.fail_reportf "byte 0x%x: machine %d, reference %d" a x y)
            m.bytes r.bytes;
          true
      | `Errors (a, b) ->
          if a <> b then QCheck.Test.fail_reportf "machine %s, reference %s" a b;
          true
      | `Mismatch e -> QCheck.Test.fail_report e)

(* Every instruction × operand kind × width appears among the generated
   programs' executed instructions often enough to matter: a guard that
   the generator above keeps covering what the compiled paths specialise. *)
let test_coverage () =
  let seen = Hashtbl.create 64 in
  let kind = function Operand.Reg _ -> "r" | Operand.Imm _ -> "i" | Operand.Mem _ -> "m" in
  let w = function Width.W1 -> "1" | Width.W2 -> "2" | Width.W4 -> "4" | Width.W8 -> "8" in
  let note (i : (int, int) Instr.t) =
    let key =
      match i with
      | Instr.Mov (wd, d, s) -> Some ("mov" ^ w wd ^ kind d ^ kind s)
      | Instr.Binop (_, wd, d, s) -> Some ("binop" ^ w wd ^ kind d ^ kind s)
      | Instr.Unop (_, wd, d) -> Some ("unop" ^ w wd ^ kind d)
      | Instr.Cmp (wd, a, b) -> Some ("cmp" ^ w wd ^ kind a ^ kind b)
      | Instr.Atomic_rmw (_, wd, _, s) -> Some ("atomic" ^ w wd ^ kind s)
      | Instr.Cmov (_, d, s) -> Some ("cmov" ^ kind d ^ kind s)
      | Instr.Io (_, s) -> Some ("io" ^ kind s)
      | _ -> None
    in
    Option.iter (fun k -> Hashtbl.replace seen k ()) key
  in
  let rand = Random.State.make [| 7 |] in
  for _ = 1 to 2000 do
    let prog = Program.assemble (gen_program rand) in
    Array.iter
      (fun (f : Program.func) ->
        Array.iter (fun (b : Program.block) -> Array.iter note b.Program.instrs) f.Program.blocks)
      prog.Program.funcs
  done;
  let ws = [ "1"; "2"; "4"; "8" ] and srcs = [ "r"; "i"; "m" ] in
  let need =
    List.concat_map
      (fun wd ->
        List.concat_map
          (fun d ->
            List.concat_map
              (fun s ->
                if d = "m" && s = "m" then []
                else [ "mov" ^ wd ^ d ^ s; "binop" ^ wd ^ d ^ s; "cmp" ^ wd ^ d ^ s ])
              srcs)
          srcs
        @ [ "unop" ^ wd ^ "r"; "unop" ^ wd ^ "m"; "unop" ^ wd ^ "i" ]
        @ List.map (fun s -> "atomic" ^ wd ^ s) [ "r"; "i" ])
      ws
    @ [ "cmovrr"; "cmovri"; "cmovrm"; "cmovmr"; "cmovir"; "ior"; "ioi"; "iom" ]
  in
  List.iter
    (fun k -> if not (Hashtbl.mem seen k) then Alcotest.failf "never generated: %s" k)
    need

(* A store to an immediate or a cmov to memory is an error only when it
   executes: in a block no thread reaches, it must not stop the run. *)
let test_dead_bad_instructions () =
  let prog =
    Program.assemble
      [
        Build.(
          func "f"
            [
              mov (reg 0) (imm 41);
              jmp "live";
              label "dead";
              ins (Instr.Mov (Width.W8, imm 1, reg 0));
              ins (Instr.Cmov (Cond.Eq, mem ~disp:0x20000 (), reg 0));
              ins (Instr.Binop (Op.Add, Width.W4, imm 3, reg 0));
              ins (Instr.Unop (Op.Neg, Width.W2, imm 3));
              ret;
              label "live";
              add (reg 0) (imm 1);
              ret;
            ]);
      ]
  in
  let m = Machine.create prog in
  Alcotest.(check int) "ran clean" 42 (Machine.run_func m ~fn:"f" ~args:[])

let () =
  Alcotest.run "reference_machine"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_machine_is_reference;
          Alcotest.test_case "generator covers every operand shape" `Quick test_coverage;
          Alcotest.test_case "bad instructions in dead blocks run clean" `Quick
            test_dead_bad_instructions;
        ] );
    ]
