(** The [threadfuser serve] daemon: a supervised streaming analysis
    service over a Unix-domain socket.

    Clients connect, stream {!Threadfuser_trace.Stream} bytes, and
    receive {!Protocol} reply frames: a status object plus — byte-for-byte
    identical to batch [threadfuser analyze --json] — the report.  The
    daemon runs every session through {!Threadfuser.Analyzer.Session}
    under a per-session memory quota and supervises with [lib/runner]
    semantics: backpressure instead of unbounded buffering, typed [busy]
    shedding at [max_sessions], per-session deadlines, seeded backoff on
    transient accept failures, crash isolation, and a graceful drain on
    SIGTERM.  See docs/robustness.md §8. *)

type config = {
  socket_path : string;  (** Unix-domain socket to bind *)
  prog : Threadfuser_prog.Program.t;  (** program every session analyzes *)
  options : Threadfuser.Analyzer.options;
  max_sessions : int;  (** concurrent sessions before shedding *)
  session_quota : int;  (** per-session memory budget (bytes) *)
  deadline_s : float option;  (** per-session wall-clock budget *)
  workers : int;  (** analysis worker domains *)
  seed : int;  (** backoff jitter seed *)
  fault : Threadfuser_fault.Exec_fault.session_plan option;
      (** deterministic chaos injection, keyed by accept ordinal *)
  tmp_dir : string option;
      (** where a session over half its quota of decoded traces spills
          them as TFSTREAM1 frames (default: [Filename.temp_dir_name],
          i.e. [TMPDIR]); the file is removed when the session ends *)
  flight_dir : string option;
      (** where poisoned/timed-out sessions dump their flight recorder
          ([session-<id>.trace.json] + [.metrics.txt]); [None] disables
          per-session recorders entirely *)
  cache : Threadfuser_cache.Cache.t option;
      (** artifact cache for clean report lookups: the report frame of an
          [ok] reply is keyed by the stream's CRC-32 content digest and
          length, served from a verified hit or written through on a
          miss.  Cache failures of any kind (corrupt entries included)
          degrade to a freshly rendered report — they never kill a
          session or the daemon.  [None] disables. *)
}

(** Where the STATS admin socket lives relative to the session socket
    ([<socket>.stats]).  The daemon always binds it there, and the
    [threadfuser stat] client derives it from [--socket] alone. *)
val admin_path_of : string -> string

(** 8 sessions, {!Threadfuser.Analyzer.Session.default_budget} quota, no
    deadline, 1 worker, seed 1, no faults, flight recorder off, no
    cache. *)
val default_config :
  prog:Threadfuser_prog.Program.t -> socket_path:string -> config

type stats = {
  served : int;  (** sessions answered with ok/degraded *)
  failed : int;  (** sessions answered with error/timeout *)
  shed : int;  (** connections turned away busy *)
  bytes_ingested : int;
}

(** [run ?stop ?on_ready cfg] binds the socket and the admin socket at
    [admin_path_of cfg.socket_path], calls [on_ready] once accepting, and serves
    until [stop] becomes [true] — then closes the listeners, drains live
    sessions to completion, removes the socket files and returns.  Stale
    socket files left by a dead daemon are replaced.  The observability
    collector is enabled for the daemon's lifetime (and restored after),
    so [STATS prom] scrapes always see live [tf_serve_*] instruments.
    Raises [Invalid_argument] on a non-positive [max_sessions] or
    [workers]; [Unix.Unix_error] if a socket cannot be bound. *)
val run : ?stop:bool Atomic.t -> ?on_ready:(unit -> unit) -> config -> stats
