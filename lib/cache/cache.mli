(** Content-addressed, crash-safe artifact store for analysis reports.

    Entries are keyed on [(workload hash, opt level, warp size, analyzer
    version)] — the full input identity of an analysis, sound because
    ThreadFuser's replay is byte-deterministic.  Every blob is wrapped in
    a self-describing TFBLOB1 envelope (embedded key + CRC-32), committed
    via temp-in-root + fsync + rename + fsync'd journal append, and
    re-verified on every read.  Torn, truncated, bit-flipped or mis-filed
    entries are quarantined — never served, never fatal — and
    [threadfuser cache scrub] restores the store to a fully verified
    state, rebuilding the index from surviving blobs after any crash.

    All operations are serialized on an internal mutex: one [t] may be
    shared across domains (the suite runner's finish callbacks, the serve
    daemon's workers). *)

type key = {
  workload : string;  (** workload identity: name plus content hash *)
  opt_level : int;
  warp_size : int;
  analyzer_version : string;
}

val key_id : key -> string
(** Stable hex content address (two independent 63-bit hash streams).
    The embedded key in each blob makes collisions harmless: a mismatched
    blob is refused and quarantined at read time. *)

type t

val open_ : ?fault:Threadfuser_fault.Store_fault.plan -> string -> t
(** [open_ root] opens (creating if needed) a cache rooted at [root].
    The index is loaded with journal semantics: corrupt lines are set
    aside in [index.quarantine], never fatal.  [?fault] arms the seeded
    durability-failure injectors on the commit path (tests and chaos
    runs). *)

val close : t -> unit

val root : t -> string

val tmp_dir : t -> string
(** The commit staging directory — always inside the cache root, so the
    final rename never crosses a filesystem boundary. *)

val put : t -> key:key -> string -> unit
(** Commit one report payload atomically.  An existing entry for the same key is
    replaced. *)

val find :
  ?on_corrupt:(Threadfuser_util.Tf_error.diagnostic -> unit) ->
  t ->
  key:key ->
  string option
(** Verified lookup: envelope magic, CRC, bounded lengths and the
    embedded key are checked, and the payload must additionally pass {!Threadfuser_report.Report_json.validate}.  A damaged entry is
    quarantined, reported through [on_corrupt] and counted in
    [tf_cache_corrupt_total]; the call returns [None] (a miss), never
    raises, never serves bad bytes. *)

type stats = {
  entries_live : int;
  bytes_live : int;
  quarantined : int;  (** files set aside in quarantine/ *)
  tmp_files : int;  (** commit-crash leftovers awaiting scrub *)
}

val stat : t -> stats

type check = {
  checked : int;
  ok : int;
  corrupt : int;  (** blobs failing magic/CRC/structure/validator *)
  missing : int;  (** indexed entries whose blob is gone *)
  orphaned : int;  (** valid blobs the index does not know *)
}

val verify : t -> check
(** Read-only full verification of every blob and index entry. *)

val scrub : t -> check
(** Repair: quarantine damaged blobs, adopt valid orphans (e.g. after a
    crash between rename and journal append), drop dangling index
    entries, sweep tmp/ leftovers, and atomically rebuild the index from
    the survivors.  [orphaned] reports adoptions.  After [scrub],
    {!verify} reports a fully consistent store. *)

val gc : t -> budget_bytes:int -> int
(** Evict least-recently-used entries (recency = journal append order,
    deterministic) until the live set fits the budget.  Returns the
    number of evictions. *)

val schema : string
(** The index journal's schema tag (["tfcache/1"]). *)
