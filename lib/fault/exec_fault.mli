(** Seeded execution-fault injection for the supervised suite runner:
    crash a job attempt before it does any work, or stall it past the
    supervisor's deadline.  Decisions are a pure function of
    [(plan seed, job id, attempt)] via {!Threadfuser_util.Lcg.derive}, so
    chaos runs are replayable.  See docs/robustness.md ("Supervision"). *)

type action =
  | No_fault
  | Crash  (** die before producing a result (exit / raise) *)
  | Stall of float  (** sleep this many seconds before working *)

val action_name : action -> string

type plan
(** Crash and stall percentages drawn in that order (see {!Fault_plan}),
    which attempts and job ids are eligible, and the retry budget the
    supervisor grants a failed job. *)

(** Build a plan; percentages are validated to 0..100, [stall_s] must
    be finite and >= 0 and [retries] >= 0 (else [Invalid_argument]).
    Defaults: seed 1, no faults, 30 s stalls, first attempt only, all
    jobs eligible, no retries. *)
val plan :
  ?seed:int ->
  ?crash_pct:int ->
  ?stall_pct:int ->
  ?stall_s:float ->
  ?first_attempt_only:bool ->
  ?only_prefix:string ->
  ?retries:int ->
  unit ->
  plan

val retries : plan -> int
(** Extra attempts after a failed first one.  A suite without a plan
    retries nothing: its jobs are deterministic. *)

val plan_of_spec : string -> plan
(** [suite --fault], e.g. ["crash=40,stall=10,stall-s=5,seed=7,retries=2"];
    omitted keys keep {!plan}'s defaults, so only first attempts are
    faulted.  Raises [Invalid_argument] on a bad spec (see
    {!Fault_plan.spec}). *)

(** [decide plan ~job ~attempt] — the action for this attempt ([attempt]
    is 1-based; raises on 0).  Deterministic per triple. *)
val decide : plan -> job:string -> attempt:int -> action

(** {1 Session faults}

    The serve daemon's chaos dimension ([threadfuser serve --fault]):
    deterministic per (seed, session ordinal), so a chaos smoke run
    replays exactly.  See docs/robustness.md §8. *)

type session_action =
  | Session_ok
  | Disconnect of int
      (** simulate the peer vanishing after this many ingested bytes:
          the stream ends mid-frame and the session must degrade to a
          typed truncation reply *)
  | Stall_writer of float
      (** simulate a writer that stops sending for this many seconds:
          trips the per-session deadline *)
  | Oversize_frame
      (** inject a frame header that exceeds the frame bound before any
          client bytes: trips the decoder's allocation defense *)

val session_action_name : session_action -> string

type session_plan
(** Disconnect, writer-stall and oversize-frame percentages drawn in that
    order (see {!Fault_plan}), plus the stall length and the cut-point
    bound. *)

(** Build a session-fault plan; percentages validated to 0..100,
    [writer_stall_s] finite and >= 0, [disconnect_after] >= 0 (else
    [Invalid_argument]).  Defaults: seed 1, no faults, 30 s stalls, cut
    within 4096 bytes. *)
val session_plan :
  ?seed:int ->
  ?disconnect_pct:int ->
  ?stall_writer_pct:int ->
  ?oversize_pct:int ->
  ?writer_stall_s:float ->
  ?disconnect_after:int ->
  unit ->
  session_plan

val session_plan_of_spec : string -> session_plan
(** [serve --fault]: keys [disconnect], [oversize] and [seed]; the
    writer stall and the cut-point bound keep {!session_plan}'s
    defaults.  As {!plan_of_spec}. *)

(** The fault for the daemon's [session]-th accepted connection (0-based
    ordinal).  Pure. *)
val decide_session : session_plan -> session:int -> session_action
