(** The shared diagnostic type of the robustness layer: trace decoding,
    validation, SIMT-stack replay and the CLI all report failures as a
    typed {!diagnostic} (instead of ad-hoc [failwith]) so callers can tell
    corrupt input from semantic trace damage from watchdog verdicts and
    degrade gracefully.  See docs/robustness.md for the taxonomy. *)

type kind =
  | Corrupt_input  (** undecodable bytes (bad magic, truncation, varints) *)
  | Unbalanced_call  (** a [Return] with no matching [Call], or vice versa *)
  | Unbalanced_lock  (** a release of a lock the thread does not hold *)
  | Bad_block_ref  (** block / function id outside the program's range *)
  | Bad_access  (** access offsets vs [n_instr], unsorted or empty blocks *)
  | Barrier_mismatch  (** threads disagree on the team-barrier sequence *)
  | Replay_error  (** the SIMT-stack replay desynchronized from the trace *)
  | Timeout  (** the replay watchdog ran out of fuel *)
  | Deadlock  (** a lock never released or a barrier never satisfied *)

type severity = Warning | Error

type diagnostic = {
  kind : kind;
  severity : severity;
  thread : int option;  (** offending thread id, when attributable *)
  message : string;
}

exception Error of diagnostic

val kind_name : kind -> string

(** [diag kind fmt ...] builds a diagnostic (default severity [Error]). *)
val diag :
  ?thread:int ->
  ?severity:severity ->
  kind ->
  ('a, Format.formatter, unit, diagnostic) format4 ->
  'a

(** [fail kind fmt ...] raises {!Error} with an [Error]-severity diagnostic. *)
val fail :
  ?thread:int -> kind -> ('a, Format.formatter, unit, 'b) format4 -> 'a

val pp : Format.formatter -> diagnostic -> unit

val to_string : diagnostic -> string
