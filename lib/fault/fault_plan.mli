(** The core shared by the seeded fault plans ({!Exec_fault},
    {!Store_fault}): a plan is an ordered list of arms, each a percentage
    and the action it fires.  This module alone validates the
    percentages and draws the arms, so every injector makes its decisions
    the same way.  It also reads the [--fault] specs ([crash=40,seed=7])
    that build plans from the command line. *)

type 'a t
(** The ordered arms of a plan producing actions of type ['a]. *)

val make : who:string -> (int * (Threadfuser_util.Lcg.t -> 'a)) list -> 'a t
(** [make ~who arms] — arms in draw order.  Each action receives the
    decision stream, so a payload it draws (a cut point, a fraction) is
    as replayable as the decision.  Raises [Invalid_argument] naming
    [who] when a percentage lies outside 0..100. *)

val draw : 'a t -> stream:int -> none:'a -> 'a
(** [draw arms ~stream ~none] — seed a generator with [stream], draw one
    [Lcg.chance] per arm in order, and fire the first arm that hits;
    [none] when no arm does.  Pure in [(arms, stream)]. *)

type spec
(** A parsed [key=value,...] list. *)

val spec : who:string -> keys:string list -> string -> spec
(** [spec ~who ~keys s] splits [s] on commas into [key=value] items.
    Raises [Invalid_argument] naming [who] on an empty spec, an unknown
    or repeated key, or a key without a value. *)

val int : spec -> string -> int option
val float : spec -> string -> float option
(** [None] when absent; [Invalid_argument] on a malformed value.  Range
    checks are the plan constructors' job. *)
