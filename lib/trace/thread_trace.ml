(** The dynamic trace of one CPU thread in flat columnar form (see
    thread_trace.mli), plus summary statistics. *)

type kind = Block | Call | Return | Lock_acq | Lock_rel | Skip | Barrier

type t = {
  tid : int;
  events : kind array;
  arg : int array;
  block : int array;
  n_instr : int array;
  acc_off : int array;
  ioff : int array;
  addr : int array;
  size : int array;
  store : Bytes.t;
}

let length t = Array.length t.events

let is_store t j =
  Char.code (Bytes.unsafe_get t.store (j lsr 3)) land (1 lsl (j land 7)) <> 0

(* A column's heap words: header plus payload.  An empty array is the
   runtime's shared static atom, which no trace owns.  A [Bytes.t] of
   length [n] is a header plus [n / word + 1] words (always padded). *)
let array_words a = if Array.length a = 0 then 0 else 1 + Array.length a

let max_access_size = 255

let heap_bytes t =
  let word = Sys.word_size / 8 in
  let record = 1 + 10 (* header + the ten fields of [t] *) in
  let store = 1 + (Bytes.length t.store / word) + 1 in
  word
  * (record + array_words t.events + array_words t.arg
   + array_words t.block + array_words t.n_instr + array_words t.acc_off
   + array_words t.ioff + array_words t.addr + array_words t.size + store)

(* Skip reason codes, as the [arg] column and both wire formats carry
   them. *)
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
  match t.events.(i) with
  | Block ->
      let lo = t.acc_off.(i) and hi = t.acc_off.(i + 1) in
      let accesses =
        if lo = hi then Event.no_accesses
        else
          Array.init (hi - lo) (fun k ->
              let j = lo + k in
              {
                Event.ioff = t.ioff.(j);
                addr = t.addr.(j);
                size = t.size.(j);
                is_store = is_store t j;
              })
      in
      Event.Block
        {
          func = t.arg.(i);
          block = t.block.(i);
          n_instr = t.n_instr.(i);
          accesses;
        }
  | Call -> Event.Call t.arg.(i)
  | Return -> Event.Return
  | Lock_acq -> Event.Lock_acq t.arg.(i)
  | Lock_rel -> Event.Lock_rel t.arg.(i)
  | Barrier -> Event.Barrier t.arg.(i)
  | Skip ->
      Event.Skip { reason = reason_of_code t.arg.(i); n_instr = t.n_instr.(i) }

let to_events t = Array.init (length t) (get t)

(* -- builder ------------------------------------------------------------- *)

module Builder = struct
  type trace = t

  type t = {
    tid : int;
    mutable n : int;
    kinds : kind array;
    arg : int array;
    blk : int array;
    ninstr : int array;
    off : int array; (* first access of each event; one slot spare *)
    mutable claimed : int;
    mutable na : int;
    mutable ioff : int array;
    mutable addr : int array;
    mutable size : int array;
    mutable store : Bytes.t;
  }

  let store_bytes n = (n + 7) lsr 3

  let create ~events ?(accesses = 16) tid =
    {
      tid;
      n = 0;
      kinds = Array.make events Return;
      arg = Array.make events 0;
      blk = Array.make events 0;
      ninstr = Array.make events 0;
      off = Array.make (events + 1) 0;
      claimed = 0;
      na = 0;
      ioff = Array.make accesses 0;
      addr = Array.make accesses 0;
      size = Array.make accesses 0;
      store = Bytes.make (store_bytes accesses) '\000';
    }

  let resize a len fill =
    let b = Array.make len fill in
    Array.blit a 0 b 0 (Array.length a);
    b

  let[@inline] push t kind ~arg ~blk ~ninstr ~n_acc =
    let i = t.n in
    if i = Array.length t.kinds then
      invalid_arg "Thread_trace.Builder: more events than created for";
    Array.unsafe_set t.kinds i kind;
    Array.unsafe_set t.arg i arg;
    Array.unsafe_set t.blk i blk;
    Array.unsafe_set t.ninstr i ninstr;
    Array.unsafe_set t.off i t.claimed;
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
    t.ioff <- resize t.ioff cap 0;
    t.addr <- resize t.addr cap 0;
    t.size <- resize t.size cap 0;
    let s = Bytes.make (store_bytes cap) '\000' in
    Bytes.blit t.store 0 s 0 (Bytes.length t.store);
    t.store <- s

  let reserve_accesses t n =
    if n > Array.length t.ioff then set_access_cap t n

  let access t ~ioff ~addr ~size ~is_store =
    if t.na = Array.length t.ioff then set_access_cap t (max 16 (2 * t.na));
    let j = t.na in
    Array.unsafe_set t.ioff j ioff;
    Array.unsafe_set t.addr j addr;
    Array.unsafe_set t.size j size;
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
    t.off.(t.n) <- t.claimed;
    let nb = store_bytes t.na in
    {
      tid = t.tid;
      events = cut t.kinds t.n;
      arg = cut t.arg t.n;
      block = cut t.blk t.n;
      n_instr = cut t.ninstr t.n;
      acc_off = cut t.off (t.n + 1);
      ioff = cut t.ioff t.na;
      addr = cut t.addr t.na;
      size = cut t.size t.na;
      store =
        (if Bytes.length t.store = nb then t.store else Bytes.sub t.store 0 nb);
    }
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
    | Skip -> skipped.(t.arg.(i)) <- skipped.(t.arg.(i)) + t.n_instr.(i)
    | Lock_acq | Lock_rel -> incr locks
    | Barrier -> incr barriers
    | Call | Return -> ()
  done;
  let n_acc = Array.length t.ioff in
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
