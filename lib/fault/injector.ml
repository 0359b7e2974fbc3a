(** Deterministic, LCG-seeded fault injector for thread traces.

    Models the damage a production trace pipeline actually sees at the
    PIN -> analyzer file handoff: truncated writes, bit rot, interleaved /
    duplicated records, and semantically broken streams (unpaired
    call/return and lock pairs, missing barrier arrivals).  Faults come in
    two layers:

    - {e byte-level} ({!corrupt_bytes}): bit flips and truncations of a
      trace file's bytes, exercising the loader;
    - {e event-level} ({!inject}): structured edits of decoded traces,
      exercising validation, quarantine and the replay watchdogs.

    Everything is driven by {!Threadfuser_util.Lcg}, so a seed fully
    determines the corruption — CI-safe and replayable. *)

module Lcg = Threadfuser_util.Lcg
module Event = Threadfuser_trace.Event
module Thread_trace = Threadfuser_trace.Thread_trace

type fault =
  | Drop_event
  | Duplicate_event
  | Swap_adjacent
  | Truncate_trace
  | Bitflip_address (* lock / barrier / access address *)
  | Corrupt_block_id
  | Drop_return (* unbalances call/return *)
  | Extra_return
  | Drop_unlock (* lock never released *)
  | Drop_barrier (* one lane misses an arrival *)

let all_faults =
  [
    Drop_event; Duplicate_event; Swap_adjacent; Truncate_trace;
    Bitflip_address; Corrupt_block_id; Drop_return; Extra_return;
    Drop_unlock; Drop_barrier;
  ]

type applied = { fault : fault; tid : int; index : int }

(* Apply [fault] to [events] at (or near) [index]; [None] if the trace has
   no applicable site.  Pure: always returns a fresh array. *)
let apply_fault rng fault (events : Event.t array) index : Event.t array option
    =
  let n = Array.length events in
  if n = 0 then None
  else
    let index = index mod n in
    let drop i =
      Array.init (n - 1) (fun j -> if j < i then events.(j) else events.(j + 1))
    in
    (* first applicable site at or after [index], wrapping around *)
    let find_from p =
      let rec go i =
        if i >= n then None else if p events.(i) then Some i else go (i + 1)
      in
      match go index with Some i -> Some i | None -> go 0
    in
    match fault with
    | Drop_event -> Some (drop index)
    | Duplicate_event ->
        Some
          (Array.init (n + 1) (fun j ->
               if j <= index then events.(j) else events.(j - 1)))
    | Swap_adjacent ->
        if n < 2 then None
        else begin
          let i = min index (n - 2) in
          let a = Array.copy events in
          let tmp = a.(i) in
          a.(i) <- a.(i + 1);
          a.(i + 1) <- tmp;
          Some a
        end
    | Truncate_trace -> if index = 0 then None else Some (Array.sub events 0 index)
    | Bitflip_address -> (
        let flip a = a lxor (1 lsl Lcg.int rng 40) in
        find_from (function
          | Event.Lock_acq _ | Event.Lock_rel _ | Event.Barrier _ -> true
          | Event.Block { accesses; _ } -> Array.length accesses > 0
          | _ -> false)
        |> Option.map (fun i ->
               let a = Array.copy events in
               (a.(i) <-
                  (match a.(i) with
                  | Event.Lock_acq x -> Event.Lock_acq (flip x)
                  | Event.Lock_rel x -> Event.Lock_rel (flip x)
                  | Event.Barrier x -> Event.Barrier (flip x)
                  | Event.Block { func; block; n_instr; accesses } ->
                      let accesses = Array.copy accesses in
                      let k = Lcg.int rng (Array.length accesses) in
                      accesses.(k) <-
                        { accesses.(k) with Event.addr = flip accesses.(k).Event.addr };
                      Event.Block { func; block; n_instr; accesses }
                  | e -> e));
               a))
    | Corrupt_block_id ->
        find_from (function Event.Block _ -> true | _ -> false)
        |> Option.map (fun i ->
               let a = Array.copy events in
               (a.(i) <-
                  (match a.(i) with
                  | Event.Block { func; block; n_instr; accesses } ->
                      if Lcg.chance rng 1 2 then
                        Event.Block
                          { func; block = block + 1 + Lcg.int rng 1000; n_instr; accesses }
                      else
                        Event.Block
                          { func = func + 1 + Lcg.int rng 1000; block; n_instr; accesses }
                  | e -> e));
               a)
    | Drop_return ->
        find_from (function Event.Return -> true | _ -> false)
        |> Option.map drop
    | Extra_return ->
        Some
          (Array.init (n + 1) (fun j ->
               if j < index then events.(j)
               else if j = index then Event.Return
               else events.(j - 1)))
    | Drop_unlock ->
        find_from (function Event.Lock_rel _ -> true | _ -> false)
        |> Option.map drop
    | Drop_barrier ->
        find_from (function Event.Barrier _ -> true | _ -> false)
        |> Option.map drop

(** [inject ~seed ?faults traces] applies up to [faults] (default 2)
    event-level faults to fresh copies of [traces], deterministically from
    [seed].  Returns the damaged traces and the faults actually applied
    (a fault without an applicable site — e.g. [Drop_unlock] on a lock-free
    trace — is skipped). *)
let inject ~seed ?(faults = 2) (traces : Thread_trace.t array) :
    Thread_trace.t array * applied list =
  let rng = Lcg.create seed in
  let out = Array.copy traces in
  let applied = ref [] in
  let n = Array.length traces in
  if n > 0 then
    for _ = 1 to faults do
      let ti = Lcg.int rng n in
      let t = out.(ti) in
      let fault = List.nth all_faults (Lcg.int rng (List.length all_faults)) in
      let n_ev = Thread_trace.length t in
      let index = if n_ev = 0 then 0 else Lcg.int rng n_ev in
      match apply_fault rng fault (Thread_trace.to_events t) index with
      | Some events ->
          out.(ti) <- Thread_trace.of_events t.Thread_trace.tid events;
          applied := { fault; tid = t.Thread_trace.tid; index } :: !applied
      | None -> ()
    done;
  (out, List.rev !applied)

(* ---- byte-level corruption -------------------------------------------- *)

type byte_fault =
  | Bit_flip of { offset : int; bit : int }
  | Truncate of int (* new length *)

(** [corrupt_bytes ~seed s] damages one byte (or the length) of the
    serialized trace [s], deterministically from [seed]. *)
let corrupt_bytes ~seed (s : string) : string * byte_fault =
  let rng = Lcg.create (seed lxor 0x7f4a7c15) in
  let n = String.length s in
  if n = 0 then (s, Truncate 0)
  else if Lcg.chance rng 1 4 then begin
    let keep = Lcg.int rng n in
    (String.sub s 0 keep, Truncate keep)
  end
  else begin
    let offset = Lcg.int rng n in
    let bit = Lcg.int rng 8 in
    let b = Bytes.of_string s in
    Bytes.set b offset (Char.chr (Char.code s.[offset] lxor (1 lsl bit)));
    (Bytes.to_string b, Bit_flip { offset; bit })
  end
