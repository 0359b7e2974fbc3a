(* The artifact cache and the TFPACK1 container: encode/decode round-trips
   (byte-identical re-encode), corruption detection, the
   crash-at-any-byte commit torture, injected durability faults
   (torn write / bit flip / partial rename), scrub's index rebuild,
   deterministic LRU gc, and the warm-suite integration (second run serves
   byte-identical reports from the cache). *)

module Pack = Threadfuser_trace.Pack
module Serial = Threadfuser_trace.Serial
module Thread_trace = Threadfuser_trace.Thread_trace
module Event = Threadfuser_trace.Event
module Cache = Threadfuser_cache.Cache
module Store_fault = Threadfuser_fault.Store_fault
module Runner = Threadfuser_runner.Runner
module Crc32 = Threadfuser_util.Crc32

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "tfcache-test-%d-%d" (Unix.getpid ()) !dir_counter)

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file p s =
  let oc = open_out_bin p in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* ------------------------------------------------------------------ *)
(* TFPACK1                                                              *)

(* Every event constructor, sync addresses, an access-free block, an
   empty thread and a non-trivial tid. *)
let sample_traces =
  [|
    Thread_trace.of_events 0
        [|
          Event.Block
            {
              func = 0;
              block = 0;
              n_instr = 3;
              accesses =
                [| { Event.ioff = 1; addr = 0x100; size = 8; is_store = false } |];
            };
          Event.Call 1;
          Event.Lock_acq 0x40;
          Event.Lock_rel 0x40;
          Event.Return;
          Event.Barrier 0x7000;
          Event.Skip { reason = Event.Io; n_instr = 12 };
          Event.Skip { reason = Event.Excluded; n_instr = 2 };
          Event.Block
            {
              func = 0;
              block = 1;
              n_instr = 2;
              accesses =
                [|
                  { Event.ioff = 0; addr = 0x108; size = 8; is_store = true };
                  { Event.ioff = 1; addr = 0x110; size = 4; is_store = false };
                |];
            };
          Event.Return;
        |];
    Thread_trace.of_events 1 [||];
    Thread_trace.of_events 7
      [| Event.Block { func = 2; block = 5; n_instr = 1; accesses = [||] } |];
  |]

let check_traces msg expected (actual : Thread_trace.t array) =
  Alcotest.(check int)
    (msg ^ ": count")
    (Array.length expected) (Array.length actual);
  Array.iteri
    (fun i t ->
      Alcotest.(check bool) (Printf.sprintf "%s: trace %d" msg i) true (t = actual.(i)))
    expected

let test_pack_roundtrip () =
  let bytes = Pack.encode sample_traces in
  Alcotest.(check string)
    "magic leads" Pack.magic
    (String.sub bytes 0 (String.length Pack.magic));
  check_traces "decode" sample_traces (Pack.decode bytes);
  Alcotest.(check string) "re-encode is byte-identical" bytes
    (Pack.encode (Pack.decode bytes));
  check_traces "empty pack" [||] (Pack.decode (Pack.encode [||]))

let test_pack_file () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "t.tfpack" in
  Pack.to_file path sample_traces;
  check_traces "file round-trip" sample_traces (Pack.of_file path)

let gen_event =
  let open QCheck.Gen in
  frequency
    [
      ( 4,
        let* func = int_bound 20 in
        let* block = int_bound 50 in
        let* n_instr = int_range 1 30 in
        let* n_acc = int_bound 4 in
        let* accs =
          list_repeat n_acc
            (let* ioff = int_bound 29 in
             let* addr = int_bound 1_000_000 in
             let* size = oneofl [ 1; 2; 4; 8 ] in
             let* is_store = bool in
             return { Event.ioff; addr; size; is_store })
        in
        return
          (Event.Block { func; block; n_instr; accesses = Array.of_list accs })
      );
      (1, map (fun f -> Event.Call f) (int_bound 20));
      (1, return Event.Return);
      (1, map (fun a -> Event.Lock_acq a) (int_bound 100_000));
      (1, map (fun a -> Event.Lock_rel a) (int_bound 100_000));
      (1, map (fun a -> Event.Barrier a) (int_bound 100_000));
      ( 1,
        let* reason = oneofl [ Event.Io; Event.Spin; Event.Excluded ] in
        let* n_instr = int_range 1 1000 in
        return (Event.Skip { reason; n_instr }) );
    ]

let gen_traces =
  QCheck.Gen.(
    let* n = int_bound 4 in
    let* ts =
      list_repeat n
        (let* tid = int_bound 1000 in
         let* events = list_size (int_bound 40) gen_event in
         return (Thread_trace.of_events tid (Array.of_list events)))
    in
    return (Array.of_list ts))

(* decode . encode = id, and encode . decode . encode = encode: the
   container is deterministic, so capturing the same traces always writes
   the same file. *)
let prop_pack_roundtrip =
  QCheck.Test.make ~name:"TFPACK1 roundtrip (byte-identical re-encode)"
    ~count:200 (QCheck.make gen_traces) (fun traces ->
      let bytes = Pack.encode traces in
      let back = Pack.decode bytes in
      Array.length back = Array.length traces
      && Array.for_all2
           (fun (a : Thread_trace.t) (b : Thread_trace.t) -> a = b)
           back traces
      && Pack.encode back = bytes)

(* Every strict prefix of a pack is typed-corrupt, never an exception or
   a silent partial decode. *)
let test_pack_truncation () =
  let bytes = Pack.encode sample_traces in
  for cut = 0 to String.length bytes - 1 do
    match Pack.decode (String.sub bytes 0 cut) with
    | _ -> Alcotest.failf "prefix of %d byte(s) decoded" cut
    | exception Serial.Corrupt _ -> ()
  done

(* Single corrupted byte anywhere: decode must raise [Serial.Corrupt] —
   except inside the (unchecksummed, self-delimiting) tid varints, where a
   flip can only rename a thread, never corrupt its events.  The sweep
   asserts no other exception ever escapes and that at most 2 positions
   (one tid byte per nonempty header region) go undetected. *)
let test_pack_bitflip () =
  let bytes = Pack.encode sample_traces in
  let n = String.length bytes in
  let detected = ref 0 in
  for i = 0 to n - 1 do
    let b = Bytes.of_string bytes in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x41));
    match Pack.decode (Bytes.to_string b) with
    | _ -> ()
    | exception Serial.Corrupt _ -> incr detected
  done;
  Alcotest.(check bool)
    (Printf.sprintf "corruption detected at %d/%d positions" !detected n)
    true
    (!detected >= n - 3)

(* A block header declaring more payload than the input holds is
   rejected from the header alone, before any payload is copied. *)
let pack_header ~payload_len =
  let buf = Buffer.create 32 in
  Buffer.add_string buf Pack.magic;
  Serial.write_uint buf 1;
  Serial.write_uint buf 0;
  Serial.write_uint buf payload_len;
  Buffer.add_string buf (String.make 16 '\000');
  Buffer.contents buf

let test_pack_oversize_bound () =
  match Pack.decode (pack_header ~payload_len:1_000_000) with
  | exception Serial.Corrupt _ -> ()
  | _ -> Alcotest.fail "oversized block header accepted"

(* A declared length of 2^62 - 1 (varint ff x8 3f, 34 bytes in all): the
   bound check must not overflow into accepting it and reaching
   [String.sub]. *)
let test_pack_length_overflow () =
  let bytes = pack_header ~payload_len:max_int in
  Alcotest.(check int) "crafted input size" 34 (String.length bytes);
  match Pack.decode bytes with
  | exception Serial.Corrupt _ -> ()
  | exception e ->
      Alcotest.failf "escaped as %s, not Corrupt" (Printexc.to_string e)
  | _ -> Alcotest.fail "block length near max_int accepted"

(* ------------------------------------------------------------------ *)
(* Cache                                                                *)

let key ?(workload = "bfs:abc123") ?(opt_level = 1) ?(warp_size = 32) () =
  { Cache.workload; opt_level; warp_size; analyzer_version = "tf-analyzer/1" }

(* The smallest document {!Threadfuser_report.Report_json.validate}
   accepts: the cache serves only reports that pass it. *)
let report_payload =
  {|{"warp_size":32,"threads":1,"warps":1,"issues":0,"thread_instructions":0,"simt_efficiency":1.0,"memory":{},"synchronization":{},"coverage":{},"per_function":[]}|}

let objects_dir root = Filename.concat root "objects"

let only_object root =
  match Sys.readdir (objects_dir root) with
  | [| f |] -> Filename.concat (objects_dir root) f
  | fs -> Alcotest.failf "expected exactly one object, found %d" (Array.length fs)

let test_cache_roundtrip () =
  let root = fresh_dir () in
  let c = Cache.open_ root in
  let k = key () in
  Alcotest.(check (option string)) "cold miss" None
    (Cache.find c ~key:k);
  Cache.put c ~key:k report_payload;
  Alcotest.(check (option string)) "hit after put" (Some report_payload)
    (Cache.find c ~key:k);
  Alcotest.(check (option string)) "other key misses" None
    (Cache.find c ~key:(key ~opt_level:2 ()));
  let s = Cache.stat c in
  Alcotest.(check int) "one live entry" 1 s.Cache.entries_live;
  Alcotest.(check int) "no quarantine" 0 s.Cache.quarantined;
  Cache.close c;
  (* durability: a fresh handle serves the same bytes *)
  let c2 = Cache.open_ root in
  Alcotest.(check (option string)) "hit across reopen" (Some report_payload)
    (Cache.find c2 ~key:k);
  Cache.close c2

let test_cache_key_id () =
  let id = Cache.key_id (key ()) in
  Alcotest.(check bool) "at least 30 hex digits" true (String.length id >= 30);
  Alcotest.(check bool) "filesystem-safe hex" true
    (String.for_all
       (function 'a' .. 'f' | '0' .. '9' -> true | _ -> false)
       id);
  Alcotest.(check string) "deterministic" id (Cache.key_id (key ()));
  List.iter
    (fun k' ->
      Alcotest.(check bool) "distinct inputs, distinct ids" true
        (Cache.key_id k' <> id))
    [ key ~workload:"bfs:abc124" (); key ~opt_level:2 (); key ~warp_size:16 () ]

(* Satellite: commit staging lives inside the cache root — never the
   system temp dir — so the final rename cannot cross a filesystem
   boundary; and commits leave no staging residue behind. *)
let test_cache_tmp_in_root () =
  let root = fresh_dir () in
  let c = Cache.open_ root in
  let tmp = Cache.tmp_dir c in
  Alcotest.(check bool) "tmp dir inside the cache root" true
    (String.length tmp > String.length root
    && String.sub tmp 0 (String.length root) = root);
  Cache.put c ~key:(key ()) report_payload;
  ignore (Cache.find c ~key:(key ()));
  Alcotest.(check int) "no staging residue after commit" 0
    (Array.length (Sys.readdir tmp));
  Cache.close c

(* Crash-at-any-byte commit torture (the journal torture test, applied to
   blobs): truncate the committed blob at every byte offset; a lookup must
   never serve bytes, never raise, and always quarantine.  Scrub then
   restores a fully verified store. *)
let test_cache_crash_at_any_byte () =
  let root = fresh_dir () in
  let c = Cache.open_ root in
  let k = key () in
  Cache.put c ~key:k report_payload;
  let path = only_object root in
  let full = read_file path in
  let corrupt_seen = ref 0 in
  for cut = 0 to String.length full - 1 do
    Cache.put c ~key:k report_payload;
    write_file path (String.sub full 0 cut);
    match
      Cache.find c ~key:k ~on_corrupt:(fun _ ->
          incr corrupt_seen)
    with
    | None -> ()
    | Some _ -> Alcotest.failf "torn blob served at cut %d" cut
  done;
  Alcotest.(check int) "every cut reported corrupt"
    (String.length full) !corrupt_seen;
  let r = Cache.scrub c in
  Alcotest.(check int) "scrub leaves nothing corrupt" 0 r.Cache.corrupt;
  let v = Cache.verify c in
  Alcotest.(check bool) "verified clean after scrub" true
    (v.Cache.corrupt = 0 && v.Cache.missing = 0 && v.Cache.orphaned = 0);
  Cache.put c ~key:k report_payload;
  Alcotest.(check (option string)) "store still serves after torture"
    (Some report_payload)
    (Cache.find c ~key:k);
  Cache.close c

(* A flipped byte in a committed blob is quarantined on read — returned as
   a miss with a typed diagnostic, never served, never fatal. *)
let test_cache_bitflip_quarantine () =
  let root = fresh_dir () in
  let c = Cache.open_ root in
  let k = key () in
  Cache.put c ~key:k report_payload;
  let path = only_object root in
  let full = read_file path in
  let b = Bytes.of_string full in
  let mid = Bytes.length b / 2 in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x10));
  write_file path (Bytes.to_string b);
  let diag = ref None in
  (match Cache.find c ~key:k ~on_corrupt:(fun d -> diag := Some d)
   with
  | None -> ()
  | Some _ -> Alcotest.fail "bit-flipped blob served");
  Alcotest.(check bool) "typed diagnostic reported" true (!diag <> None);
  let s = Cache.stat c in
  Alcotest.(check int) "blob quarantined" 1 s.Cache.quarantined;
  Alcotest.(check int) "entry no longer live" 0 s.Cache.entries_live;
  Alcotest.(check (option string)) "subsequent lookups miss cleanly" None
    (Cache.find c ~key:k);
  Cache.close c

(* The cache stores reports only.  A blob whose body carries the kind tag
   an older layout gave packed traces (1) is corrupt even under a valid
   CRC: quarantined on read, never served. *)
let test_cache_old_pack_tag () =
  let root = fresh_dir () in
  let c = Cache.open_ root in
  let k = key () in
  Cache.put c ~key:k report_payload;
  let path = only_object root in
  Alcotest.(check string) "object named for its report"
    (Cache.key_id k ^ ".report") (Filename.basename path);
  let full = read_file path in
  let magic = String.length "TFBLOB1" in
  let body = Bytes.of_string (String.sub full magic (String.length full - magic - 4)) in
  Alcotest.(check int) "body leads with the report tag" 0
    (Char.code (Bytes.get body 0));
  Bytes.set body 0 '\001';
  let resealed = Buffer.create (String.length full) in
  Buffer.add_string resealed (String.sub full 0 magic);
  Buffer.add_bytes resealed body;
  Crc32.add_le resealed (Crc32.string (Bytes.to_string body));
  write_file path (Buffer.contents resealed);
  let diag = ref None in
  (match Cache.find c ~key:k ~on_corrupt:(fun d -> diag := Some d) with
  | None -> ()
  | Some _ -> Alcotest.fail "pack-tagged blob served");
  Alcotest.(check bool) "typed diagnostic reported" true (!diag <> None);
  Alcotest.(check int) "blob quarantined" 1 (Cache.stat c).Cache.quarantined;
  Cache.close c

(* The seeded durability injectors: every fault mode ends in a clean miss
   and [scrub] heals the store; a partial rename leaves a valid orphan
   that scrub adopts, turning the miss back into a hit. *)
let test_cache_fault_injection () =
  let run_fault ?torn_pct ?flip_pct ?partial_pct ~adopted () =
    let root = fresh_dir () in
    let fault = Store_fault.plan ~seed:42 ?torn_pct ?flip_pct ?partial_pct () in
    let c = Cache.open_ ~fault root in
    let k = key () in
    Cache.put c ~key:k report_payload;
    (match Cache.find c ~key:k with
    | None -> ()
    | Some got ->
        Alcotest.(check string) "a hit under fault must still be intact"
          report_payload got);
    Cache.close c;
    (* reopen clean and repair *)
    let c2 = Cache.open_ root in
    let r = Cache.scrub c2 in
    if adopted then
      Alcotest.(check bool) "partial rename's orphan adopted" true
        (r.Cache.orphaned >= 1);
    let v = Cache.verify c2 in
    Alcotest.(check bool) "verified clean after scrub" true
      (v.Cache.corrupt = 0 && v.Cache.missing = 0 && v.Cache.orphaned = 0);
    if adopted then
      Alcotest.(check (option string)) "adopted blob now hits"
        (Some report_payload)
        (Cache.find c2 ~key:k)
    else begin
      Cache.put c2 ~key:k report_payload;
      Alcotest.(check (option string)) "healed store serves"
        (Some report_payload)
        (Cache.find c2 ~key:k)
    end;
    Cache.close c2
  in
  run_fault ~torn_pct:100 ~adopted:false ();
  run_fault ~flip_pct:100 ~adopted:false ();
  run_fault ~partial_pct:100 ~adopted:true ()

(* Scrub rebuilds the index from surviving blobs alone: the envelope is
   self-describing, so losing index.jsonl entirely loses no data. *)
let test_cache_index_rebuild () =
  let root = fresh_dir () in
  let c = Cache.open_ root in
  let k1 = key () and k2 = key ~opt_level:2 () in
  Cache.put c ~key:k1 report_payload;
  Cache.put c ~key:k2 report_payload;
  Cache.close c;
  Sys.remove (Filename.concat root "index.jsonl");
  let c2 = Cache.open_ root in
  Alcotest.(check (option string)) "no index, no hit" None
    (Cache.find c2 ~key:k1);
  let r = Cache.scrub c2 in
  Alcotest.(check int) "both blobs adopted" 2 r.Cache.orphaned;
  Alcotest.(check (option string)) "rebuilt index serves k1"
    (Some report_payload)
    (Cache.find c2 ~key:k1);
  Alcotest.(check (option string)) "rebuilt index serves k2"
    (Some report_payload)
    (Cache.find c2 ~key:k2);
  Cache.close c2;
  (* the rebuilt index survives a reopen too *)
  let c3 = Cache.open_ root in
  Alcotest.(check (option string)) "rebuilt index durable"
    (Some report_payload)
    (Cache.find c3 ~key:k1);
  Cache.close c3

(* A torn tail on the index journal is quarantined on open, never fatal,
   and entries from intact lines keep serving. *)
let test_cache_torn_index_line () =
  let root = fresh_dir () in
  let c = Cache.open_ root in
  let k = key () in
  Cache.put c ~key:k report_payload;
  Cache.close c;
  let index = Filename.concat root "index.jsonl" in
  let full = read_file index in
  write_file index (full ^ "{\"op\":\"put\",\"tr");
  let c2 = Cache.open_ root in
  Alcotest.(check (option string)) "intact entries survive a torn tail"
    (Some report_payload)
    (Cache.find c2 ~key:k);
  Cache.close c2

(* gc evicts in journal-append (LRU) order: a touched entry outlives an
   older untouched one, deterministically. *)
let test_cache_gc_lru () =
  let root = fresh_dir () in
  let c = Cache.open_ root in
  let k1 = key ~workload:"a" () in
  let k2 = key ~workload:"b" () in
  let k3 = key ~workload:"c" () in
  Cache.put c ~key:k1 report_payload;
  Cache.put c ~key:k2 report_payload;
  Cache.put c ~key:k3 report_payload;
  (* touch k1: k2 becomes the least recently used *)
  ignore (Cache.find c ~key:k1);
  let total = (Cache.stat c).Cache.bytes_live in
  let evicted = Cache.gc c ~budget_bytes:(total - 1) in
  Alcotest.(check int) "one eviction to fit" 1 evicted;
  Alcotest.(check (option string)) "LRU entry evicted" None
    (Cache.find c ~key:k2);
  Alcotest.(check (option string)) "touched entry survives"
    (Some report_payload)
    (Cache.find c ~key:k1);
  Alcotest.(check (option string)) "newest entry survives"
    (Some report_payload)
    (Cache.find c ~key:k3);
  Alcotest.(check int) "gc to zero clears the store" 2
    (Cache.gc c ~budget_bytes:0);
  Alcotest.(check int) "empty after full eviction" 0
    (Cache.stat c).Cache.entries_live;
  Cache.close c

(* ------------------------------------------------------------------ *)
(* Warm-suite integration                                               *)

let suite_config ~cache dir =
  {
    Runner.default_config with
    parallelism = 1;
    dir;
    cache = Some cache;
  }

let test_warm_suite () =
  let cache_root = fresh_dir () in
  let cache = Cache.open_ cache_root in
  let jobs = List.map Runner.job [ "vectoradd"; "bfs" ] in
  let dir1 = fresh_dir () in
  let m1 = Runner.run ~config:(suite_config ~cache dir1) jobs in
  Alcotest.(check bool) "cold suite ok" true (Runner.all_ok m1);
  Alcotest.(check int) "cold run misses every job" 2 m1.Runner.cache_misses;
  Alcotest.(check int) "cold run has no hits" 0 m1.Runner.cache_hits;
  let dir2 = fresh_dir () in
  let m2 = Runner.run ~config:(suite_config ~cache dir2) jobs in
  Alcotest.(check bool) "warm suite ok" true (Runner.all_ok m2);
  Alcotest.(check int) "warm run hits every job" 2 m2.Runner.cache_hits;
  Alcotest.(check int) "warm run misses nothing" 0 m2.Runner.cache_misses;
  List.iter2
    (fun (e1 : Runner.entry) (e2 : Runner.entry) ->
      Alcotest.(check bool) "warm entry marked cached" true
        (e2.Runner.source = Runner.Cached);
      match (e1.Runner.report_file, e2.Runner.report_file) with
      | Some r1, Some r2 ->
          Alcotest.(check string)
            ("byte-identical report for " ^ e1.Runner.id)
            (read_file (Filename.concat dir1 r1))
            (read_file (Filename.concat dir2 r2))
      | _ -> Alcotest.fail "missing report file")
    m1.Runner.entries m2.Runner.entries;
  (* the rollup surfaces cache effectiveness *)
  let rollup = Threadfuser_report.Json.to_string (Runner.rollup_json m2) in
  List.iter
    (fun needle ->
      let n = String.length needle and m = String.length rollup in
      let rec go i = i + n <= m && (String.sub rollup i n = needle || go (i + 1)) in
      Alcotest.(check bool) ("rollup has " ^ needle) true (go 0))
    [ "cache_hits"; "cache_misses"; "cache_hit_ratio" ];
  Cache.close cache

let () =
  Alcotest.run "cache"
    [
      ( "pack",
        [
          Alcotest.test_case "roundtrip" `Quick test_pack_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_pack_file;
          QCheck_alcotest.to_alcotest prop_pack_roundtrip;
          Alcotest.test_case "truncation at any byte" `Quick
            test_pack_truncation;
          Alcotest.test_case "corrupted byte detected" `Quick test_pack_bitflip;
          Alcotest.test_case "oversize bound from header" `Quick
            test_pack_oversize_bound;
          Alcotest.test_case "block length overflow is corrupt" `Quick
            test_pack_length_overflow;
        ] );
      ( "cache",
        [
          Alcotest.test_case "put/find roundtrip" `Quick test_cache_roundtrip;
          Alcotest.test_case "key ids" `Quick test_cache_key_id;
          Alcotest.test_case "tmp inside root" `Quick test_cache_tmp_in_root;
          Alcotest.test_case "crash at any byte" `Quick
            test_cache_crash_at_any_byte;
          Alcotest.test_case "bit flip quarantined" `Quick
            test_cache_bitflip_quarantine;
          Alcotest.test_case "old pack tag quarantined" `Quick
            test_cache_old_pack_tag;
          Alcotest.test_case "fault injection heals" `Quick
            test_cache_fault_injection;
          Alcotest.test_case "index rebuilt from blobs" `Quick
            test_cache_index_rebuild;
          Alcotest.test_case "torn index line" `Quick test_cache_torn_index_line;
          Alcotest.test_case "gc is LRU" `Quick test_cache_gc_lru;
        ] );
      ( "suite",
        [ Alcotest.test_case "warm suite serves cache" `Quick test_warm_suite ] );
    ]
