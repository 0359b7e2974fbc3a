(** The seeded corruption harness: drive a captured trace through the
    fault injector and the checked analysis pipeline, classifying every
    run.  The contract under test (ISSUE acceptance): every corrupted
    input ends in a clean report, a typed diagnostic, or a partial report
    whose coverage fields account for the quarantined threads — never an
    uncaught exception, never a hang.

    Used by the [threadfuser fuzz] CLI subcommand, the [make fuzz] target
    and the [dune runtest] smoke test, all with fixed seed sets so runs
    are deterministic and CI-safe. *)

module Analyzer = Threadfuser.Analyzer
module Metrics = Threadfuser.Metrics
module Serial = Threadfuser_trace.Serial
module Pack = Threadfuser_trace.Pack
module Tf_error = Threadfuser_util.Tf_error
module Program = Threadfuser_prog.Program

type outcome =
  | Clean  (** decoded, validated and replayed fully *)
  | Rejected of string  (** typed [Corrupt] / [Tf_error] at decode *)
  | Degraded of Metrics.coverage
      (** partial report; coverage accounts for the quarantine *)
  | Uncaught of string  (** BUG: an untyped exception escaped *)

let outcome_name = function
  | Clean -> "clean"
  | Rejected _ -> "rejected"
  | Degraded _ -> "degraded"
  | Uncaught _ -> "uncaught"

type totals = {
  mutable runs : int;
  mutable clean : int;
  mutable rejected : int;
  mutable degraded : int;
  mutable uncaught : (int * string) list; (* seed, exception — BUG if any *)
}

let totals () =
  { runs = 0; clean = 0; rejected = 0; degraded = 0; uncaught = [] }

(* Cheap sanity check that the partial report is self-consistent: the
   coverage fields must account for every thread that went missing. *)
let coverage_accounts (c : Metrics.coverage) =
  c.Metrics.threads_analyzed + c.Metrics.threads_quarantined
  = c.Metrics.threads_total
  && c.Metrics.threads_analyzed >= 0
  && c.Metrics.threads_quarantined >= 0

(** Run one seeded corruption of [bytes] (a trace file's bytes, as
    [threadfuser trace] writes them, captured from a program built against
    [prog]) end to end.  Even seeds corrupt
    the serialized bytes (decoder path); odd seeds decode cleanly and then
    damage the events (validation / replay path). *)
let run_one ~(prog : Program.t) ~bytes ~seed : outcome =
  try
    let traces =
      if seed land 1 = 0 then begin
        let damaged, _fault = Injector.corrupt_bytes ~seed bytes in
        Pack.decode damaged
      end
      else begin
        let traces = Pack.decode bytes in
        let damaged, _applied = Injector.inject ~seed traces in
        damaged
      end
    in
    let checked = Analyzer.analyze_checked prog traces in
    let cov = checked.Analyzer.result.Analyzer.report.Metrics.coverage in
    if not (coverage_accounts cov) then
      Uncaught
        (Printf.sprintf
           "coverage does not add up: %d analyzed + %d quarantined <> %d \
            total"
           cov.Metrics.threads_analyzed cov.Metrics.threads_quarantined
           cov.Metrics.threads_total)
    else if Metrics.degraded checked.Analyzer.result.Analyzer.report then
      Degraded cov
    else Clean
  with
  | Serial.Corrupt m -> Rejected m
  | Tf_error.Error d -> Rejected (Tf_error.to_string d)
  | e -> Uncaught (Printexc.to_string e)

(** Run seeds [seed0 .. seed0 + runs - 1]; [on_outcome] (when given) is
    called after every run, e.g. for progress output. *)
let run ?(seed0 = 1) ?(runs = 1000) ?on_outcome ~(prog : Program.t) ~bytes ()
    : totals =
  let t = totals () in
  for i = 0 to runs - 1 do
    let seed = seed0 + i in
    let o = run_one ~prog ~bytes ~seed in
    t.runs <- t.runs + 1;
    (match o with
    | Clean -> t.clean <- t.clean + 1
    | Rejected _ -> t.rejected <- t.rejected + 1
    | Degraded _ -> t.degraded <- t.degraded + 1
    | Uncaught m -> t.uncaught <- (seed, m) :: t.uncaught);
    match on_outcome with Some f -> f ~seed o | None -> ()
  done;
  t.uncaught <- List.rev t.uncaught;
  t

let pp_totals ppf t =
  Fmt.pf ppf
    "%d runs: %d clean, %d rejected (typed), %d degraded (partial report), \
     %d UNCAUGHT"
    t.runs t.clean t.rejected t.degraded
    (List.length t.uncaught)
