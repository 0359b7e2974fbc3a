(** Semantic validation of decoded thread traces.

    [Serial] guarantees only that the bytes decoded; this pass checks that
    the events make sense under the trace contract (docs/ARCHITECTURE.md §1)
    before the analyzer replays them:

    - call/return balance: a [Return] must match a [Call], except the
      final return of the worker itself; the trace must not end inside an
      unreturned call;
    - lock pairing: a [Lock_rel] must release a lock the thread holds, and
      every held lock must be released by the end of the trace (a lock
      held at end-of-trace would deadlock the warp serializer);
    - block/function ids must be inside the program's range (when bounds
      are supplied), so replay never indexes out of an array;
    - accesses must fit the block: offsets inside [0, n_instr), sorted by
      offset, sizes in [1, Thread_trace.max_access_size], and [n_instr]
      consistent with the program;
    - barrier consistency: all threads must agree on the sequence of
      team-barrier addresses (majority reference); a thread missing an
      arrival would block the team forever.

    Diagnostics are typed ({!Threadfuser_util.Tf_error}); [Error]-severity
    ones mean the thread cannot be replayed and should be quarantined. *)

module Tf_error = Threadfuser_util.Tf_error

(** Program shape used to range-check ids; obtained from [Program.t] by
    the analyzer (this library does not depend on [lib/prog]). *)
type bounds = {
  func_count : int;
  block_count : int -> int;  (* blocks of a function *)
  block_instrs : (int -> int -> int) option;  (* instrs of (func, block) *)
}

let no_bounds =
  { func_count = max_int; block_count = (fun _ -> max_int); block_instrs = None }

(* Prepend a diagnostic of thread [tid] to [diags]. *)
let add_diag diags tid k fmt =
  Format.kasprintf
    (fun m -> diags := Tf_error.diag ~thread:tid k "%s" m :: !diags)
    fmt

(* Block [i] of [t]. *)
let check_block ~bounds diags (t : Thread_trace.t) i =
  let func = t.arg.(i) and block = t.block.(i) and n_instr = t.n_instr.(i) in
  let tid = t.tid in
  if func < 0 || func >= bounds.func_count then
    add_diag diags tid Tf_error.Bad_block_ref
      "function id %d out of range (program has %d)" func bounds.func_count
  else if block < 0 || block >= bounds.block_count func then
    add_diag diags tid Tf_error.Bad_block_ref
      "block f%d.b%d out of range (function has %d)" func block
      (bounds.block_count func)
  else begin
    (match bounds.block_instrs with
    | Some instrs when instrs func block <> n_instr ->
        add_diag diags tid Tf_error.Bad_access
          "block f%d.b%d claims %d instructions, program has %d" func block
          n_instr (instrs func block)
    | _ -> ());
    if n_instr <= 0 then
      add_diag diags tid Tf_error.Bad_access "block f%d.b%d has n_instr %d"
        func block n_instr
    else begin
      let last_ioff = ref (-1) in
      for j = t.acc_off.(i) to t.acc_off.(i + 1) - 1 do
        let ioff = t.ioff.(j) and size = t.size.(j) in
        if ioff < 0 || ioff >= n_instr then
          add_diag diags tid Tf_error.Bad_access
            "access offset %d outside block f%d.b%d (%d instructions)" ioff
            func block n_instr
        else if ioff < !last_ioff then
          add_diag diags tid Tf_error.Bad_access
            "accesses of f%d.b%d not sorted by offset" func block;
        if size <= 0 || size > Thread_trace.max_access_size then
          add_diag diags tid Tf_error.Bad_access
            "access of f%d.b%d has size %d" func block size;
        last_ioff := ioff
      done
    end
  end

(** Validate one thread (everything except cross-thread barrier
    consistency).  Returns diagnostics, newest first. *)
let thread ?(bounds = no_bounds) (t : Thread_trace.t) :
    Tf_error.diagnostic list =
  let diags = ref [] in
  let add k fmt = add_diag diags t.tid k fmt in
  let depth = ref 0 in
  let worker_returned = ref false in
  let held = ref [] in
  (* lock addresses, innermost first *)
  for i = 0 to Thread_trace.length t - 1 do
    let kind = t.events.(i) in
    if !worker_returned then begin
      if kind <> Thread_trace.Skip then
        add Tf_error.Unbalanced_call
          "event %d after the worker's final return" i
    end
    else
      match kind with
      | Thread_trace.Block -> check_block ~bounds diags t i
      | Thread_trace.Call ->
          let f = t.arg.(i) in
          if f < 0 || f >= bounds.func_count then
            add Tf_error.Bad_block_ref "call to function id %d out of range" f;
          incr depth
      | Thread_trace.Return ->
          if !depth > 0 then decr depth
          else
            (* depth 0: this is the worker's own return, legal only as
               the last control event of the trace *)
            worker_returned := true
      | Thread_trace.Lock_acq -> held := t.arg.(i) :: !held
      | Thread_trace.Lock_rel ->
          let a = t.arg.(i) in
          if List.mem a !held then begin
            (* remove one occurrence *)
            let rec drop = function
              | [] -> []
              | x :: tl -> if x = a then tl else x :: drop tl
            in
            held := drop !held
          end
          else
            add Tf_error.Unbalanced_lock
              "release of lock 0x%x the thread does not hold (event %d)" a i
      | Thread_trace.Barrier | Thread_trace.Skip -> ()
  done;
  if (not !worker_returned) && !depth > 0 then
    add Tf_error.Unbalanced_call "trace ends inside %d unreturned call(s)"
      !depth;
  List.iter
    (fun a ->
      add Tf_error.Deadlock
        "lock 0x%x acquired but never released (would hang the warp \
         serializer)"
        a)
    !held;
  !diags

let barrier_seq (t : Thread_trace.t) =
  let seq = ref [] in
  for i = Thread_trace.length t - 1 downto 0 do
    if t.events.(i) = Thread_trace.Barrier then seq := t.arg.(i) :: !seq
  done;
  !seq

(** Cross-thread barrier consistency over precomputed per-thread barrier
    sequences: threads whose sequence differs from the majority get a
    [Barrier_mismatch] error (a missing arrival would block the team
    forever — the machine's barriers release only when every live thread
    has arrived).  Factored out of {!all} so [Analyzer.Session], which
    retains only the barrier sequences while the traces sit in its spool,
    votes with {e exactly} this code — including the tie-breaking
    [Hashtbl] fold order, which identical insertion sequences make
    deterministic. *)
let barrier_check ~(tids : int array) (seqs : int list array) :
    Tf_error.diagnostic list =
  if Array.length seqs < 2 then []
  else begin
    (* majority vote over the distinct sequences *)
    let counts = Hashtbl.create 8 in
    Array.iter
      (fun s ->
        Hashtbl.replace counts s (1 + Option.value ~default:0 (Hashtbl.find_opt counts s)))
      seqs;
    let reference, _ =
      Hashtbl.fold
        (fun s n ((_, best) as acc) -> if n > best then (s, n) else acc)
        counts ([], 0)
    in
    let barrier_diags = ref [] in
    Array.iteri
      (fun i s ->
        if s <> reference then
          barrier_diags :=
            Tf_error.diag ~thread:tids.(i) Tf_error.Barrier_mismatch
              "barrier sequence (%d arrivals) disagrees with the team \
               majority (%d): a missing arrival never satisfies the barrier"
              (List.length s) (List.length reference)
            :: !barrier_diags)
      seqs;
    List.rev !barrier_diags
  end

(** Validate a trace set: per-thread checks plus cross-thread barrier
    consistency ({!barrier_check}). *)
let all ?(bounds = no_bounds) (traces : Thread_trace.t array) :
    Tf_error.diagnostic list =
  let diags =
    Array.fold_left (fun acc t -> List.rev_append (thread ~bounds t) acc) []
      traces
  in
  let barrier_diags =
    barrier_check
      ~tids:(Array.map (fun (t : Thread_trace.t) -> t.Thread_trace.tid) traces)
      (Array.map barrier_seq traces)
  in
  List.rev_append diags barrier_diags

(** The quarantine verdict, keyed by tid: one hash-table pass over the
    diagnostics, one over [tids]. *)
let verdict ~(tids : int array) (diags : Tf_error.diagnostic list) =
  let first_err = Hashtbl.create 8 in
  List.iter
    (fun (d : Tf_error.diagnostic) ->
      match d.Tf_error.thread with
      | Some tid
        when d.Tf_error.severity = Tf_error.Error
             && not (Hashtbl.mem first_err tid) ->
          Hashtbl.add first_err tid d
      | _ -> ())
    diags;
  let bad =
    Array.fold_right
      (fun tid acc ->
        match Hashtbl.find_opt first_err tid with
        | Some d -> (tid, d) :: acc
        | None -> acc)
      tids []
  in
  (bad, Array.map (fun tid -> not (Hashtbl.mem first_err tid)) tids)

(** Threads with at least one [Error]-severity diagnostic, with the first
    such diagnostic ({!verdict} over {!all}). *)
let quarantine ?(bounds = no_bounds) (traces : Thread_trace.t array) :
    Tf_error.diagnostic list * (int * Tf_error.diagnostic) list =
  let diags = all ~bounds traces in
  let tids = Array.map (fun (t : Thread_trace.t) -> t.Thread_trace.tid) traces in
  (diags, fst (verdict ~tids diags))
