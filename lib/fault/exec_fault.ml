(** Execution faults: seeded crash and stall injection for the suite
    runner and session faults for the serve daemon (see exec_fault.mli).
    Where {!Injector} damages a job's input, this damages its execution. *)

module Lcg = Threadfuser_util.Lcg

type action =
  | No_fault
  | Crash  (** die before producing a result (exit / raise) *)
  | Stall of float  (** sleep this many seconds before working *)

let action_name = function
  | No_fault -> "none"
  | Crash -> "crash"
  | Stall _ -> "stall"

type plan = {
  seed : int;
  arms : action Fault_plan.t;  (** crash, then stall *)
  first_attempt_only : bool;
      (** restrict faults to attempt 1, so retries always recover —
          the deterministic shape CI smoke tests want *)
  only_prefix : string option;
      (** when set, only job ids with this prefix are eligible *)
  retries : int;  (** extra attempts the supervisor grants a failed job *)
}

(* a NaN stall would crash a suite attempt or never end a serve stall *)
let check_seconds ~who s =
  if not (Float.is_finite s && s >= 0.) then
    invalid_arg (who ^ ": stall seconds must be finite and >= 0")

let plan ?(seed = 1) ?(crash_pct = 0) ?(stall_pct = 0) ?(stall_s = 30.)
    ?(first_attempt_only = true) ?only_prefix ?(retries = 0) () =
  check_seconds ~who:"Exec_fault.plan" stall_s;
  if retries < 0 then invalid_arg "Exec_fault.plan: retries must be >= 0";
  {
    seed;
    arms =
      Fault_plan.make ~who:"Exec_fault.plan"
        [ (crash_pct, fun _ -> Crash); (stall_pct, fun _ -> Stall stall_s) ];
    first_attempt_only;
    only_prefix;
    retries;
  }

let retries p = p.retries

let plan_of_spec s =
  let s =
    Fault_plan.spec ~who:"Exec_fault.plan_of_spec"
      ~keys:[ "crash"; "stall"; "stall-s"; "seed"; "retries" ] s
  in
  let i = Fault_plan.int s in
  plan ?seed:(i "seed") ?crash_pct:(i "crash") ?stall_pct:(i "stall")
    ?stall_s:(Fault_plan.float s "stall-s") ?retries:(i "retries") ()

(** [decide plan ~job ~attempt] — [attempt] is 1-based.  Pure: the same
    triple always yields the same action. *)
let decide p ~job ~attempt =
  if attempt < 1 then invalid_arg "Exec_fault.decide: attempt is 1-based";
  let eligible =
    (not (p.first_attempt_only && attempt > 1))
    && (match p.only_prefix with
       | Some prefix -> String.starts_with ~prefix job
       | None -> true)
  in
  if not eligible then No_fault
  else
    (* [Lcg.hash_string] keys the per-job stream: a stable hash, so chaos
       decisions replay across OCaml versions. *)
    let job_stream = Lcg.derive ~seed:p.seed ~index:(Lcg.hash_string job) in
    Fault_plan.draw p.arms
      ~stream:(Lcg.derive ~seed:job_stream ~index:attempt)
      ~none:No_fault

(* ------------------------------------------------------------------ *)
(* Session faults: the serve daemon's chaos dimension.                  *)

type session_action =
  | Session_ok
  | Disconnect of int
  | Stall_writer of float
  | Oversize_frame

let session_action_name = function
  | Session_ok -> "none"
  | Disconnect _ -> "disconnect"
  | Stall_writer _ -> "stall-writer"
  | Oversize_frame -> "oversize-frame"

type session_plan = {
  session_seed : int;
  session_arms : session_action Fault_plan.t;
      (** disconnect, then writer stall, then oversize frame *)
}

let session_plan ?(seed = 1) ?(disconnect_pct = 0) ?(stall_writer_pct = 0)
    ?(oversize_pct = 0) ?(writer_stall_s = 30.) ?(disconnect_after = 4096) () =
  check_seconds ~who:"Exec_fault.session_plan" writer_stall_s;
  let session_arms =
    Fault_plan.make ~who:"Exec_fault.session_plan"
      [
        (* the cut point is derived from the same stream: replayable, but
           not the same byte for every damaged session *)
        ( disconnect_pct,
          fun g -> Disconnect (Lcg.int_range g 0 disconnect_after) );
        (stall_writer_pct, fun _ -> Stall_writer writer_stall_s);
        (oversize_pct, fun _ -> Oversize_frame);
      ]
  in
  if disconnect_after < 0 then
    invalid_arg "Exec_fault.session_plan: disconnect_after must be >= 0";
  { session_seed = seed; session_arms }

let session_plan_of_spec s =
  let s =
    Fault_plan.spec ~who:"Exec_fault.session_plan_of_spec" s
      ~keys:[ "disconnect"; "oversize"; "seed" ]
  in
  let i = Fault_plan.int s in
  session_plan ?seed:(i "seed") ?disconnect_pct:(i "disconnect")
    ?oversize_pct:(i "oversize") ()

(** [decide_session plan ~session] — the fault for the daemon's
    [session]-th accepted connection (0-based ordinal).  Pure, so a chaos
    smoke run replays byte-for-byte: the same seed always damages the
    same sessions the same way. *)
let decide_session p ~session =
  if session < 0 then
    invalid_arg "Exec_fault.decide_session: session ordinal is 0-based";
  Fault_plan.draw p.session_arms
    ~stream:(Lcg.derive ~seed:p.session_seed ~index:session)
    ~none:Session_ok
