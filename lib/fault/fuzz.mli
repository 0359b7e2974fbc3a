(** Seeded corruption harness: drive a captured (serialized) trace set
    through the fault injector and the checked analysis pipeline,
    classifying every run.  Deterministic per seed, so fuzz runs are
    replayable and CI-safe.  See docs/robustness.md. *)

module Metrics = Threadfuser.Metrics
module Program = Threadfuser_prog.Program

type outcome =
  | Clean  (** decoded, validated and replayed fully *)
  | Rejected of string  (** typed [Corrupt] / [Tf_error] at decode *)
  | Degraded of Metrics.coverage
      (** partial report; coverage accounts for the quarantine *)
  | Uncaught of string  (** BUG: an untyped exception escaped *)

val outcome_name : outcome -> string

type totals = {
  mutable runs : int;
  mutable clean : int;
  mutable rejected : int;
  mutable degraded : int;
  mutable uncaught : (int * string) list;  (** (seed, exn) — BUG if any *)
}

(** One seeded corruption, end to end.  [bytes] is a trace file's
    contents, decoded by {!Threadfuser_trace.Pack.decode}.  Even seeds
    corrupt the bytes (decoder path); odd seeds decode cleanly and damage the events
    (validation / replay path). *)
val run_one : prog:Program.t -> bytes:string -> seed:int -> outcome

(** Run seeds [seed0 .. seed0+runs-1] (defaults 1, 1000). *)
val run :
  ?seed0:int ->
  ?runs:int ->
  ?on_outcome:(seed:int -> outcome -> unit) ->
  prog:Program.t ->
  bytes:string ->
  unit ->
  totals

val pp_totals : Format.formatter -> totals -> unit
