(** The dynamic trace of one CPU thread in flat columnar form (see
    thread_trace.mli), plus summary statistics. *)

type kind = Block | Call | Return | Lock_acq | Lock_rel | Skip | Barrier

type t = {
  tid : int;
  events : kind array;
  ev : int array;
  n_instr : int array;
  acc : int array;
  store : Bytes.t;
}

let length t = Array.length t.events

let n_accesses t = Array.length t.acc / 3

let is_store t j =
  Char.code (Bytes.unsafe_get t.store (j lsr 3)) land (1 lsl (j land 7)) <> 0

(* A column's heap words: header plus payload.  An empty array is the
   runtime's shared static atom, which no trace owns.  A [Bytes.t] of
   length [n] is a header plus [n / word + 1] words (always padded). *)
let array_words a = if Array.length a = 0 then 0 else 1 + Array.length a

let max_access_size = 255

let heap_bytes t =
  let word = Sys.word_size / 8 in
  let record = 1 + 6 (* header + the six fields of [t] *) in
  let store = 1 + (Bytes.length t.store / word) + 1 in
  word
  * (record + array_words t.events + array_words t.ev
   + array_words t.n_instr + array_words t.acc + store)

(* Skip reason codes, as a Skip's argument word and both wire formats
   carry them. *)
let skip_io = 0
let skip_spin = 1
let skip_excluded = 2

let skip_code : Event.skip_reason -> int = function
  | Event.Io -> skip_io
  | Event.Spin -> skip_spin
  | Event.Excluded -> skip_excluded

let is_skip_code c = c >= skip_io && c <= skip_excluded

let reason_of_code c : Event.skip_reason =
  if c = skip_io then Event.Io
  else if c = skip_spin then Event.Spin
  else if c = skip_excluded then Event.Excluded
  else invalid_arg (Printf.sprintf "Thread_trace: bad skip reason code %d" c)

(* -- the Event.t view ---------------------------------------------------- *)

let get t i : Event.t =
  let e = 3 * i in
  match t.events.(i) with
  | Block ->
      let lo = t.ev.(e + 2) and hi = t.ev.(e + 5) in
      let accesses =
        if lo = hi then Event.no_accesses
        else
          Array.init (hi - lo) (fun k ->
              let j = lo + k in
              {
                Event.ioff = t.acc.(3 * j);
                addr = t.acc.((3 * j) + 1);
                size = t.acc.((3 * j) + 2);
                is_store = is_store t j;
              })
      in
      Event.Block
        {
          func = t.ev.(e);
          block = t.ev.(e + 1);
          n_instr = t.n_instr.(i);
          accesses;
        }
  | Call -> Event.Call t.ev.(e)
  | Return -> Event.Return
  | Lock_acq -> Event.Lock_acq t.ev.(e)
  | Lock_rel -> Event.Lock_rel t.ev.(e)
  | Barrier -> Event.Barrier t.ev.(e)
  | Skip ->
      Event.Skip { reason = reason_of_code t.ev.(e); n_instr = t.n_instr.(i) }

let to_events t = Array.init (length t) (get t)

(* -- builder ------------------------------------------------------------- *)

module Builder = struct
  type trace = t

  type t = {
    tid : int;
    mutable n : int;
    kinds : kind array;
    ev : int array; (* stride 3, one triple spare for the end offset *)
    ninstr : int array;
    mutable claimed : int;
    mutable na : int;
    mutable acc : int array; (* stride 3 *)
    mutable store : Bytes.t;
  }

  let store_bytes n = (n + 7) lsr 3

  let create ~events ?(accesses = 16) tid =
    (* [ev] is allocated before the other columns.  No reader sees the
       order, but it moves the major GC's phase, and trace-ingest's peak
       RSS read about 12% higher with [ev] allocated after them
       (docs/performance.md, "Replay is memory-bound"). *)
    let ev = Array.make (3 * (events + 1)) 0 in
    {
      tid;
      n = 0;
      kinds = Array.make events Return;
      ev;
      ninstr = Array.make events 0;
      claimed = 0;
      na = 0;
      acc = Array.make (3 * accesses) 0;
      store = Bytes.make (store_bytes accesses) '\000';
    }

  let[@inline] push t kind ~arg ~blk ~ninstr ~n_acc =
    let i = t.n in
    if i = Array.length t.kinds then
      invalid_arg "Thread_trace.Builder: more events than created for";
    Array.unsafe_set t.kinds i kind;
    let e = 3 * i in
    Array.unsafe_set t.ev e arg;
    Array.unsafe_set t.ev (e + 1) blk;
    Array.unsafe_set t.ev (e + 2) t.claimed;
    Array.unsafe_set t.ninstr i ninstr;
    t.claimed <- t.claimed + n_acc;
    t.n <- i + 1

  let block t ~func ~block ~n_instr ~n_acc =
    if n_acc < 0 then invalid_arg "Thread_trace.Builder.block: negative n_acc";
    push t Block ~arg:func ~blk:block ~ninstr:n_instr ~n_acc

  let call t f = push t Call ~arg:f ~blk:0 ~ninstr:0 ~n_acc:0
  let return t = push t Return ~arg:0 ~blk:0 ~ninstr:0 ~n_acc:0
  let lock_acq t a = push t Lock_acq ~arg:a ~blk:0 ~ninstr:0 ~n_acc:0
  let lock_rel t a = push t Lock_rel ~arg:a ~blk:0 ~ninstr:0 ~n_acc:0
  let barrier t a = push t Barrier ~arg:a ~blk:0 ~ninstr:0 ~n_acc:0

  let skip t code n =
    if not (is_skip_code code) then
      invalid_arg
        (Printf.sprintf "Thread_trace.Builder.skip: bad code %d" code);
    push t Skip ~arg:code ~blk:0 ~ninstr:n ~n_acc:0

  let set_access_cap t cap =
    let a = Array.make (3 * cap) 0 in
    Array.blit t.acc 0 a 0 (Array.length t.acc);
    t.acc <- a;
    let s = Bytes.make (store_bytes cap) '\000' in
    Bytes.blit t.store 0 s 0 (Bytes.length t.store);
    t.store <- s

  let reserve_accesses t n =
    if 3 * n > Array.length t.acc then set_access_cap t n

  let access t ~ioff ~addr ~size ~is_store =
    let j = t.na in
    let w = 3 * j in
    if w = Array.length t.acc then set_access_cap t (max 16 (2 * j));
    Array.unsafe_set t.acc w ioff;
    Array.unsafe_set t.acc (w + 1) addr;
    Array.unsafe_set t.acc (w + 2) size;
    if is_store then begin
      let k = j lsr 3 in
      Bytes.unsafe_set t.store k
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get t.store k) lor (1 lsl (j land 7))))
    end;
    t.na <- j + 1

  let claimed t = t.claimed

  let emit t (e : Event.t) =
    match e with
    | Event.Block b ->
        Array.iter
          (fun (a : Event.access) ->
            access t ~ioff:a.ioff ~addr:a.addr ~size:a.size
              ~is_store:a.is_store)
          b.accesses;
        block t ~func:b.func ~block:b.block ~n_instr:b.n_instr
          ~n_acc:(Array.length b.accesses)
    | Event.Call f -> call t f
    | Event.Return -> return t
    | Event.Lock_acq a -> lock_acq t a
    | Event.Lock_rel a -> lock_rel t a
    | Event.Barrier a -> barrier t a
    | Event.Skip { reason; n_instr } -> skip t (skip_code reason) n_instr

  (* A builder created at its exact final size hands its columns over
     without a copy. *)
  let cut a n = if Array.length a = n then a else Array.sub a 0 n

  let finish t : trace =
    if t.claimed <> t.na then
      invalid_arg
        (Printf.sprintf
           "Thread_trace.Builder.finish: blocks own %d accesses, %d appended"
           t.claimed t.na);
    (* the spare triple after the last event: its offset slot is the end
       of the last event's accesses; the other two stay 0 *)
    t.ev.((3 * t.n) + 2) <- t.claimed;
    let nb = store_bytes t.na in
    {
      tid = t.tid;
      events = cut t.kinds t.n;
      ev = cut t.ev (3 * (t.n + 1));
      n_instr = cut t.ninstr t.n;
      acc = cut t.acc (3 * t.na);
      store =
        (if Bytes.length t.store = nb then t.store else Bytes.sub t.store 0 nb);
    }
end

(* -- the tracer's log ------------------------------------------------------ *)

(* Every event and every memory access is recorded as it happens as one
   two-word record, in chunks that never move; [finish] then writes the
   records once into columns allocated at their exact sizes, so the log
   is the only garbage a trace leaves (about half the size of its
   columns).  Growing the columns themselves instead leaves up to a
   trace's worth of slack and copies: in the end-to-end benchmark,
   replay-sweep's peak RSS rose from about 122 MiB to 157 (doubling) or
   169 (fixed-size chunks joined at the end), and chunks made simulate's
   set-up 60% slower.

   Record layout ([w0], [w1]): [w0]'s low 3 bits are the event's tag
   (the {!kind} constructor order, as in TFPACK1), or [access_tag] for an
   access, and [x] is [w0 lsr 3].
   - Block: [x] = func | block << 30, [w1] = n_instr | n_acc << 32
     (program ids and block sizes are far below these widths);
   - Call, Lock_acq, Lock_rel, Barrier: [w1] = callee or address;
     Return: nothing; Skip: [x] = reason code, [w1] = n_instr;
   - access: [x] = store | size << 1 | ioff << 9, [w1] = address.
   Accesses precede the Block that owns them. *)
module Log = struct
  type trace = t

  type t = {
    mutable cur : int array; (* chunk being filled *)
    mutable used : int;
    mutable full : int array list; (* filled chunks, newest first *)
    mutable events : int;
    mutable accesses : int;
    mutable block_accs : int; (* accesses of the executing block *)
  }

  let max_chunk = 8192

  let access_tag = 7

  let kind_of_tag = [| Block; Call; Return; Lock_acq; Lock_rel; Skip; Barrier |]

  let create () =
    {
      cur = Array.make 64 0;
      used = 0;
      full = [];
      events = 0;
      accesses = 0;
      block_accs = 0;
    }

  let grow t =
    t.full <- t.cur :: t.full;
    t.cur <- Array.make (min max_chunk (2 * t.used)) 0;
    t.used <- 0

  let[@inline] add t w0 w1 =
    if t.used = Array.length t.cur then grow t;
    let u = t.used in
    Array.unsafe_set t.cur u w0;
    Array.unsafe_set t.cur (u + 1) w1;
    t.used <- u + 2

  let[@inline] event t tag x w1 =
    t.events <- t.events + 1;
    add t (tag lor (x lsl 3)) w1

  let access t ~ioff ~addr ~size ~is_store =
    t.accesses <- t.accesses + 1;
    t.block_accs <- t.block_accs + 1;
    add t
      (access_tag lor ((Bool.to_int is_store lor (size lsl 1) lor (ioff lsl 9)) lsl 3))
      addr

  let block t ~func ~block ~n_instr =
    event t 0 (func lor (block lsl 30)) (n_instr lor (t.block_accs lsl 32));
    t.block_accs <- 0

  let call t f = event t 1 0 f
  let return t = event t 2 0 0
  let lock_acq t a = event t 3 0 a
  let lock_rel t a = event t 4 0 a
  let skip t code n = event t 5 code n
  let barrier t a = event t 6 0 a

  (* One pass over the records into columns of the exact final sizes,
     allocated in {!Builder.create}'s order. *)
  let finish t ~tid : trace =
    let n = t.events and na = t.accesses in
    let ev = Array.make (3 * (n + 1)) 0 in
    let store = Bytes.make ((na + 7) lsr 3) '\000' in
    let acc = Array.make (3 * na) 0 in
    let n_instr = Array.make n 0 in
    let events = Array.make n Return in
    let i = ref 0 and j = ref 0 and claimed = ref 0 in
    let convert a used =
      let k = ref 0 in
      while !k < used do
        let w0 = Array.unsafe_get a !k and w1 = Array.unsafe_get a (!k + 1) in
        let tag = w0 land 7 and x = w0 lsr 3 in
        if tag = access_tag then begin
          let jj = !j in
          let w = 3 * jj in
          acc.(w) <- x lsr 9;
          acc.(w + 1) <- w1;
          acc.(w + 2) <- (x lsr 1) land 0xff;
          if x land 1 <> 0 then
            Bytes.unsafe_set store (jj lsr 3)
              (Char.unsafe_chr
                 (Char.code (Bytes.unsafe_get store (jj lsr 3))
                 lor (1 lsl (jj land 7))));
          j := jj + 1
        end
        else begin
          let ii = !i in
          let e = 3 * ii in
          let kind = Array.unsafe_get kind_of_tag tag in
          events.(ii) <- kind;
          ev.(e + 2) <- !claimed;
          (match kind with
          | Block ->
              ev.(e) <- x land 0x3fff_ffff;
              ev.(e + 1) <- x lsr 30;
              n_instr.(ii) <- w1 land 0xffff_ffff;
              claimed := !claimed + (w1 lsr 32)
          | Skip ->
              ev.(e) <- x;
              n_instr.(ii) <- w1
          | Return -> ()
          | Call | Lock_acq | Lock_rel | Barrier -> ev.(e) <- w1);
          i := ii + 1
        end;
        k := !k + 2
      done
    in
    List.iter (fun a -> convert a (Array.length a)) (List.rev t.full);
    convert t.cur t.used;
    ev.((3 * n) + 2) <- !claimed;
    { tid; events; ev; n_instr; acc; store }
end

let of_events tid events =
  let accesses =
    Array.fold_left
      (fun n (e : Event.t) ->
        match e with Event.Block b -> n + Array.length b.accesses | _ -> n)
      0 events
  in
  let b = Builder.create ~events:(Array.length events) ~accesses tid in
  Array.iter (Builder.emit b) events;
  Builder.finish b

(* -- statistics ---------------------------------------------------------- *)

type stats = {
  traced_instrs : int; (* instructions inside Block events *)
  skipped_io : int;
  skipped_spin : int;
  skipped_excluded : int;
  blocks : int;
  loads : int;
  stores : int;
  lock_ops : int;
  barriers : int;
}

let stats t =
  let traced = ref 0
  and skipped = [| 0; 0; 0 |]
  and blocks = ref 0
  and locks = ref 0
  and barriers = ref 0 in
  for i = 0 to length t - 1 do
    match t.events.(i) with
    | Block ->
        traced := !traced + t.n_instr.(i);
        incr blocks
    | Skip ->
        let code = t.ev.(3 * i) in
        skipped.(code) <- skipped.(code) + t.n_instr.(i)
    | Lock_acq | Lock_rel -> incr locks
    | Barrier -> incr barriers
    | Call | Return -> ()
  done;
  let n_acc = n_accesses t in
  let stores = ref 0 in
  for j = 0 to n_acc - 1 do
    if is_store t j then incr stores
  done;
  {
    traced_instrs = !traced;
    skipped_io = skipped.(skip_io);
    skipped_spin = skipped.(skip_spin);
    skipped_excluded = skipped.(skip_excluded);
    blocks = !blocks;
    loads = n_acc - !stores;
    stores = !stores;
    lock_ops = !locks;
    barriers = !barriers;
  }

let pp ppf t =
  Fmt.pf ppf "thread %d (%d events):@." t.tid (length t);
  Array.iter (fun e -> Fmt.pf ppf "  %a@." Event.pp e) (to_events t)
