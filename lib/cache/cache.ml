(** Content-addressed, crash-safe artifact store (see cache.mli).

    On disk, a cache root holds

    {v
      objects/<id>.report   committed blobs (TFBLOB1 envelopes)
      tmp/                  commit staging — same filesystem as objects/
      quarantine/           blobs that failed verification, set aside
      index.jsonl           fsync'd append-only journal of the live set
      index.quarantine      index lines that failed to parse
    v}

    Commit protocol (the journal semantics of lib/runner/journal.ml):
    write the envelope to a temp file {e inside the root} — never /tmp,
    so the rename cannot cross a filesystem boundary — fsync, rename into
    [objects/], fsync the directory, then append one index line and fsync
    it.  A crash at any byte of that sequence leaves either no entry
    (temp garbage, swept by scrub), an orphaned-but-valid blob (re-adopted
    by scrub), or a fully committed entry; never a served torn read.

    Every read re-verifies the envelope: magic, CRC-32 over the whole
    body, bounded length headers via {!Pack}'s readers, and that the
    embedded key matches the requested one.  The payload, an analysis
    report, must additionally parse and pass {!Report_json.validate}.
    Anything that fails is moved to [quarantine/] — never served, never
    fatal — with a typed {!Tf_error} diagnostic and a
    [tf_cache_corrupt_total] tick. *)

module Pack = Threadfuser_trace.Pack
module Json = Threadfuser_report.Json
module Report_json = Threadfuser_report.Report_json
module Tf_error = Threadfuser_util.Tf_error
module Crc32 = Threadfuser_util.Crc32
module Lcg = Threadfuser_util.Lcg
module Store_fault = Threadfuser_fault.Store_fault
module Obs = Threadfuser_obs.Obs

let c_hits =
  Obs.Counter.make "tf_cache_hits_total"
    ~help:"cache lookups served from a verified blob"
let c_misses =
  Obs.Counter.make "tf_cache_misses_total"
    ~help:"cache lookups that found no servable entry"
let c_corrupt =
  Obs.Counter.make "tf_cache_corrupt_total"
    ~help:"blobs that failed verification and were quarantined"
let c_commits =
  Obs.Counter.make "tf_cache_commits_total"
    ~help:"entries committed through the atomic temp+fsync+rename path"
let c_evictions =
  Obs.Counter.make "tf_cache_evictions_total"
    ~help:"entries evicted by the gc size budget (LRU order)"

let schema = "tfcache/1"

(* ------------------------------------------------------------------ *)
(* Keys and content addressing.                                        *)

type key = {
  workload : string;  (** workload identity: name plus content hash *)
  opt_level : int;
  warp_size : int;
  analyzer_version : string;
}

(* Every blob holds an analysis report.  Its body still leads with the
   kind tag of an older layout that also stored packed traces, so stores
   written then keep verifying: tag 0 is a report, any other tag is
   corrupt. *)
let report_tag = 0

(* 0x1f cannot appear in the numeric fields and is vanishingly unlikely in
   names, so the canonical string is injective in practice; the embedded
   key in every blob makes even a hash collision harmless (the read-side
   key check refuses the mismatched blob). *)
let canonical k =
  Printf.sprintf "%s\x1f%d\x1f%d\x1f%s" k.workload k.opt_level k.warp_size
    k.analyzer_version

(* Two independent FNV-1a streams give a 120-bit id: [Lcg.hash_string] is
   stable across OCaml versions, so ids are portable cache-wide. *)
let key_id k =
  let c = canonical k in
  Printf.sprintf "%015x%015x" (Lcg.hash_string c)
    (Lcg.hash_string (c ^ "\x1f#2"))

let object_name k = key_id k ^ ".report"

let pp_key ppf k =
  Fmt.pf ppf "%s opt=%d warp=%d analyzer=%s" k.workload k.opt_level
    k.warp_size k.analyzer_version

(* ------------------------------------------------------------------ *)
(* Blob envelope: TFBLOB1, self-describing so a scrub can rebuild the
   whole index from surviving blobs alone. *)

let blob_magic = "TFBLOB1"

let encode_blob ~key:k payload =
  let body = Buffer.create (String.length payload + 64) in
  Pack.write_uint body report_tag;
  Pack.write_uint body (String.length k.workload);
  Buffer.add_string body k.workload;
  Pack.write_uint body k.opt_level;
  Pack.write_uint body k.warp_size;
  Pack.write_uint body (String.length k.analyzer_version);
  Buffer.add_string body k.analyzer_version;
  Pack.write_uint body (String.length payload);
  Buffer.add_string body payload;
  let b = Buffer.contents body in
  let out = Buffer.create (String.length b + 16) in
  Buffer.add_string out blob_magic;
  Buffer.add_string out b;
  Crc32.add_le out (Crc32.string b);
  Buffer.contents out

let read_bytes (r : Pack.reader) n =
  (* [n] has already passed a [read_count] bound *)
  let s = String.sub r.Pack.data r.Pack.pos n in
  r.Pack.pos <- r.Pack.pos + n;
  s

(* Raises [Pack.Corrupt] on any damage: the CRC runs first, so a torn or
   bit-flipped body never reaches the structural parse. *)
let decode_blob s =
  let n_magic = String.length blob_magic in
  if String.length s < n_magic + 4 || String.sub s 0 n_magic <> blob_magic
  then raise (Pack.Corrupt "bad blob magic");
  let body_len = String.length s - n_magic - 4 in
  let body = String.sub s n_magic body_len in
  let stored = Crc32.read_le s (n_magic + body_len) in
  let computed = Crc32.string body in
  if stored <> computed then
    raise
      (Pack.Corrupt
         (Printf.sprintf "blob crc mismatch (stored %08x, computed %08x)"
            stored computed));
  let r = Pack.reader body in
  let tag = Pack.read_uint r in
  if tag <> report_tag then
    raise (Pack.Corrupt (Printf.sprintf "bad blob kind %d" tag));
  let wlen = Pack.read_count r ~min_bytes:1 "workload" in
  let workload = read_bytes r wlen in
  let opt_level = Pack.read_uint r in
  let warp_size = Pack.read_uint r in
  let alen = Pack.read_count r ~min_bytes:1 "analyzer version" in
  let analyzer_version = read_bytes r alen in
  let plen = Pack.read_count r ~min_bytes:1 "payload" in
  let payload = read_bytes r plen in
  if r.Pack.pos <> body_len then
    raise
      (Pack.Corrupt
         (Printf.sprintf "blob has %d trailing byte(s)"
            (body_len - r.Pack.pos)));
  ({ workload; opt_level; warp_size; analyzer_version }, payload)

(* One more gate before a report is trusted: the payload must be
   parseable JSON that passes the report validator. *)
let validate_payload payload =
  match Json.parse payload with
  | Error m -> Error ("cached report does not parse: " ^ m)
  | Ok j -> (
      match Report_json.validate j with
      | Ok () -> Ok ()
      | Error m -> Error ("cached report fails validation: " ^ m))

(* ------------------------------------------------------------------ *)
(* Store state.                                                        *)

type entry = { e_bytes : int; mutable e_seq : int }

type t = {
  root : string;
  objects_dir : string;
  tmp_dir : string;
  quarantine_dir : string;
  index_path : string;
  entries : (string, entry) Hashtbl.t;  (* object name -> live entry *)
  mutable seq : int;  (* recency clock: index line order, no wall time *)
  mutable index_fd : Unix.file_descr;
  mu : Mutex.t;
  fault : Store_fault.plan option;
}

let with_lock t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let root t = t.root
let tmp_dir t = t.tmp_dir

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let fsync_dir path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* One journal line, written whole and fsync'd — the append discipline of
   lib/runner/journal.ml. *)
let append_index_line t line =
  let line = line ^ "\n" in
  let n = String.length line in
  let rec write off =
    if off < n then
      write (off + Unix.write_substring t.index_fd line off (n - off))
  in
  write 0;
  Unix.fsync t.index_fd

let put_line ~id ~bytes =
  Printf.sprintf
    {|{"schema":"%s","op":"put","id":"%s","kind":"report","bytes":%d}|}
    schema id bytes

let op_line op ~id =
  Printf.sprintf {|{"schema":"%s","op":"%s","id":"%s"}|} schema op id

(* ------------------------------------------------------------------ *)
(* Index loading: same quarantine-not-fatal semantics as the runner
   journal — a bad line is set aside, never a crash. *)

let parse_index_line line =
  match Json.parse line with
  | Error m -> Error m
  | Ok j -> (
      let str k = Option.bind (Json.member k j) Json.to_string_opt in
      let int k = Option.bind (Json.member k j) Json.to_int_opt in
      match (str "schema", str "op", str "id") with
      | Some s, _, _ when s <> schema -> Error ("unknown schema " ^ s)
      | Some _, Some "put", Some id -> (
          match (str "kind", int "bytes") with
          | Some "report", Some bytes when bytes >= 0 -> Ok (`Put (id, bytes))
          | _ -> Error "bad put record")
      | Some _, Some "touch", Some id -> Ok (`Touch id)
      | Some _, Some "evict", Some id -> Ok (`Evict id)
      | Some _, Some "quarantine", Some id -> Ok (`Quarantine id)
      | _ -> Error "missing schema/op/id")

let load_index t =
  if Sys.file_exists t.index_path then begin
    let ic = open_in t.index_path in
    let bad = ref [] in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        try
          while true do
            let line = input_line ic in
            if String.trim line <> "" then begin
              t.seq <- t.seq + 1;
              match parse_index_line line with
              | Ok (`Put (id, bytes)) ->
                  Hashtbl.replace t.entries id
                    { e_bytes = bytes; e_seq = t.seq }
              | Ok (`Touch id) -> (
                  match Hashtbl.find_opt t.entries id with
                  | Some e -> e.e_seq <- t.seq
                  | None -> ())
              | Ok (`Evict id) | Ok (`Quarantine id) ->
                  Hashtbl.remove t.entries id
              | Error m -> bad := (line, m) :: !bad
            end
          done
        with End_of_file -> ());
    (match !bad with
    | [] -> ()
    | bad_lines ->
        let oc =
          open_out_gen
            [ Open_append; Open_creat ]
            0o644
            (Filename.concat t.root "index.quarantine")
        in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            List.iter
              (fun (line, m) -> Printf.fprintf oc "# %s\n%s\n" m line)
              (List.rev bad_lines)));
    (* entries whose blob vanished (a crash between rename and append
       cannot cause this; external deletion can) are dropped: a find must
       never dangle *)
    let stale =
      Hashtbl.fold
        (fun id _ acc ->
          if Sys.file_exists (Filename.concat t.objects_dir id) then acc
          else id :: acc)
        t.entries []
    in
    List.iter (Hashtbl.remove t.entries) stale
  end

let open_ ?fault root =
  let root =
    if Filename.is_relative root then Filename.concat (Sys.getcwd ()) root
    else root
  in
  let t =
    {
      root;
      objects_dir = Filename.concat root "objects";
      tmp_dir = Filename.concat root "tmp";
      quarantine_dir = Filename.concat root "quarantine";
      index_path = Filename.concat root "index.jsonl";
      entries = Hashtbl.create 64;
      seq = 0;
      index_fd = Unix.stdin (* replaced below *);
      mu = Mutex.create ();
      fault;
    }
  in
  mkdir_p t.objects_dir;
  mkdir_p t.tmp_dir;
  mkdir_p t.quarantine_dir;
  load_index t;
  t.index_fd <-
    Unix.openfile t.index_path
      [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ]
      0o644;
  t

let close t =
  with_lock t (fun () -> try Unix.close t.index_fd with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Commit path.                                                        *)

(* Temp files live under the cache root — [Filename.temp_file] would put
   them in /tmp, where the final rename can cross a filesystem boundary
   and stop being atomic. *)
let write_atomic t ~name bytes =
  let tmp =
    Filename.concat t.tmp_dir
      (Printf.sprintf "%s.%d.tmp" name (Unix.getpid ()))
  in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let n = String.length bytes in
      let rec write off =
        if off < n then
          write (off + Unix.write_substring fd bytes off (n - off))
      in
      write 0;
      Unix.fsync fd);
  let dest = Filename.concat t.objects_dir name in
  Unix.rename tmp dest;
  fsync_dir t.objects_dir

let put t ~key payload =
  with_lock t @@ fun () ->
  let id = object_name key in
  let blob = encode_blob ~key payload in
  let action =
    match t.fault with
    | None -> Store_fault.No_fault
    | Some p -> Store_fault.decide p ~id
  in
  let image = Store_fault.mangle action ~id blob in
  write_atomic t ~name:id image;
  (match action with
  | Store_fault.Partial_rename ->
      (* simulated crash between rename and journal append: the object is
         on disk but the index never learns of it — scrub re-adopts it *)
      ()
  | _ ->
      append_index_line t (put_line ~id ~bytes:(String.length image));
      t.seq <- t.seq + 1;
      Hashtbl.replace t.entries id
        { e_bytes = String.length image; e_seq = t.seq });
  Obs.Counter.incr c_commits

(* ------------------------------------------------------------------ *)
(* Quarantine: move the damaged blob aside (never delete evidence),
   journal the removal, count it. *)

let quarantine_blob t ~id =
  let src = Filename.concat t.objects_dir id in
  let rec dest n =
    let d =
      Filename.concat t.quarantine_dir
        (if n = 0 then id else Printf.sprintf "%s.%d" id n)
    in
    if Sys.file_exists d then dest (n + 1) else d
  in
  (try Unix.rename src (dest 0) with Unix.Unix_error _ -> ());
  (try append_index_line t (op_line "quarantine" ~id)
   with Unix.Unix_error _ -> ());
  Hashtbl.remove t.entries id;
  Obs.Counter.incr c_corrupt

(* ------------------------------------------------------------------ *)
(* Lookup.                                                             *)

let find ?(on_corrupt = fun _ -> ()) t ~key =
  with_lock t @@ fun () ->
  let id = object_name key in
  let corrupt fmt =
    Format.kasprintf
      (fun m ->
        quarantine_blob t ~id;
        on_corrupt
          (Tf_error.diag Tf_error.Corrupt_input "cache entry %s: %s" id m);
        Obs.Counter.incr c_misses;
        None)
      fmt
  in
  match Hashtbl.find_opt t.entries id with
  | None ->
      Obs.Counter.incr c_misses;
      None
  | Some e -> (
      match read_file (Filename.concat t.objects_dir id) with
      | exception Sys_error _ -> corrupt "blob file unreadable"
      | s -> (
          match decode_blob s with
          | exception Pack.Corrupt m -> corrupt "%s" m
          | k, payload ->
              if k <> key then corrupt "blob key mismatch (%a)" pp_key k
              else begin
                match validate_payload payload with
                | Error m -> corrupt "%s" m
                | Ok () ->
                    t.seq <- t.seq + 1;
                    e.e_seq <- t.seq;
                    (try append_index_line t (op_line "touch" ~id)
                     with Unix.Unix_error _ -> ());
                    Obs.Counter.incr c_hits;
                    Some payload
              end))

(* ------------------------------------------------------------------ *)
(* Maintenance: stat / verify / scrub / gc.                            *)

type stats = {
  entries_live : int;
  bytes_live : int;
  quarantined : int;  (** files set aside in quarantine/ *)
  tmp_files : int;  (** commit-crash leftovers awaiting scrub *)
}

let dir_files d =
  match Sys.readdir d with
  | files ->
      Array.sort compare files;
      Array.to_list files
  | exception Sys_error _ -> []

let stat t =
  with_lock t @@ fun () ->
  {
    entries_live = Hashtbl.length t.entries;
    bytes_live = Hashtbl.fold (fun _ e n -> n + e.e_bytes) t.entries 0;
    quarantined = List.length (dir_files t.quarantine_dir);
    tmp_files = List.length (dir_files t.tmp_dir);
  }

type check = {
  checked : int;
  ok : int;
  corrupt : int;  (** blobs failing magic/CRC/structure/validator *)
  missing : int;  (** indexed entries whose blob is gone *)
  orphaned : int;  (** valid blobs on disk the index does not know *)
}

(* Full verification of one on-disk blob: envelope, embedded-key-vs-name
   agreement, and payload validity. *)
let blob_ok t id =
  match read_file (Filename.concat t.objects_dir id) with
  | exception Sys_error _ -> None
  | s -> (
      match decode_blob s with
      | exception Pack.Corrupt _ -> None
      | k, payload -> (
          if object_name k <> id then None
          else
            match validate_payload payload with
            | Ok () -> Some (String.length s)
            | Error _ -> None))

let verify t =
  with_lock t @@ fun () ->
  let files = dir_files t.objects_dir in
  let seen = Hashtbl.create 64 in
  let ok = ref 0 and corrupt = ref 0 and orphaned = ref 0 in
  List.iter
    (fun id ->
      Hashtbl.replace seen id ();
      match blob_ok t id with
      | None -> incr corrupt
      | Some _ ->
          if Hashtbl.mem t.entries id then incr ok else incr orphaned)
    files;
  let missing = ref 0 in
  Hashtbl.iter
    (fun id _ -> if not (Hashtbl.mem seen id) then incr missing)
    t.entries;
  {
    checked = List.length files + !missing;
    ok = !ok;
    corrupt = !corrupt;
    missing = !missing;
    orphaned = !orphaned;
  }

(* Scrub: re-verify every blob, quarantine the damaged, adopt valid
   orphans, drop dangling index entries, sweep commit leftovers, and
   atomically replace the index with one rebuilt from the survivors.
   After a scrub, [verify] reports a fully consistent store. *)
let scrub t =
  with_lock t @@ fun () ->
  let files = dir_files t.objects_dir in
  let survivors = ref [] in
  let corrupt = ref 0 and adopted = ref 0 in
  List.iter
    (fun id ->
      match blob_ok t id with
      | Some bytes ->
          if not (Hashtbl.mem t.entries id) then incr adopted;
          survivors := (id, bytes) :: !survivors
      | None -> (
          incr corrupt;
          Obs.Counter.incr c_corrupt;
          let rec dest n =
            let d =
              Filename.concat t.quarantine_dir
                (if n = 0 then id else Printf.sprintf "%s.%d" id n)
            in
            if Sys.file_exists d then dest (n + 1) else d
          in
          try Unix.rename (Filename.concat t.objects_dir id) (dest 0)
          with Unix.Unix_error _ -> ()))
    files;
  let survivors = List.rev !survivors in
  let missing = ref 0 in
  Hashtbl.iter
    (fun id _ ->
      if not (List.mem_assoc id survivors) then
        incr missing)
    t.entries;
  (* commit-crash leftovers in tmp/ are unreachable garbage *)
  List.iter
    (fun f -> try Sys.remove (Filename.concat t.tmp_dir f) with Sys_error _ -> ())
    (dir_files t.tmp_dir);
  (* rebuild the index from the survivors, atomically: temp in the cache
     root, fsync, rename over index.jsonl *)
  (try Unix.close t.index_fd with Unix.Unix_error _ -> ());
  let tmp = Filename.concat t.tmp_dir "index.rebuild.tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      List.iter
        (fun (id, bytes) ->
          let line = put_line ~id ~bytes ^ "\n" in
          let n = String.length line in
          let rec write off =
            if off < n then
              write (off + Unix.write_substring fd line off (n - off))
          in
          write 0)
        survivors;
      Unix.fsync fd);
  Unix.rename tmp t.index_path;
  fsync_dir t.root;
  t.index_fd <-
    Unix.openfile t.index_path
      [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ]
      0o644;
  Hashtbl.reset t.entries;
  t.seq <- 0;
  List.iter
    (fun (id, bytes) ->
      t.seq <- t.seq + 1;
      Hashtbl.replace t.entries id { e_bytes = bytes; e_seq = t.seq })
    survivors;
  {
    checked = List.length files;
    ok = List.length survivors;
    corrupt = !corrupt;
    missing = !missing;
    orphaned = !adopted;
  }

(* LRU gc under a byte budget.  Recency is index-line order — the
   journal's append sequence, no wall clocks — so eviction order is
   deterministic and replayable. *)
let gc t ~budget_bytes =
  if budget_bytes < 0 then invalid_arg "Cache.gc: negative budget";
  with_lock t @@ fun () ->
  let by_age =
    List.sort
      (fun (_, a) (_, b) -> compare a.e_seq b.e_seq)
      (Hashtbl.fold (fun id e acc -> (id, e) :: acc) t.entries [])
  in
  let total = List.fold_left (fun n (_, e) -> n + e.e_bytes) 0 by_age in
  let evicted = ref 0 in
  let rec go total = function
    | (id, e) :: rest when total > budget_bytes ->
        (try Sys.remove (Filename.concat t.objects_dir id)
         with Sys_error _ -> ());
        append_index_line t (op_line "evict" ~id);
        Hashtbl.remove t.entries id;
        Obs.Counter.incr c_evictions;
        incr evicted;
        go (total - e.e_bytes) rest
    | _ -> ()
  in
  go total by_age;
  !evicted
