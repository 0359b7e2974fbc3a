(** Seeded exponential backoff with jitter for job retries.

    The delay before retrying a failed attempt doubles per attempt and is
    jittered to [0.5x, 1.5x) so a batch of jobs that failed together does
    not retry in lock-step (a thundering herd against whatever shared
    resource made them fail).  The jitter draw comes from a generator
    derived with {!Threadfuser_util.Lcg.derive} from a job-specific seed
    and the attempt index, so a given (job, attempt) always waits the
    same time: suite runs are replayable end to end. *)

module Lcg = Threadfuser_util.Lcg

let max_delay_s = 30.

(** [delay_s ~base ~seed ~attempt] — delay after the failure of (1-based)
    [attempt].  [seed] should already be job-specific (the runner derives
    one stream per job).  Capped at {!max_delay_s}. *)
let delay_s ~base ~seed ~attempt =
  if attempt < 1 then invalid_arg "Backoff.delay_s: attempt is 1-based";
  let g = Lcg.create (Lcg.derive ~seed ~index:attempt) in
  let expo = base *. (2. ** float_of_int (attempt - 1)) in
  let jitter = 0.5 +. (float_of_int (Lcg.int g 1024) /. 1024.) in
  Float.min max_delay_s (expo *. jitter)
