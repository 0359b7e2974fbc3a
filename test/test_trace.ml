(* Tests for trace events, statistics, the flat trace columns and the
   TFPACK1 decoder's behaviour on hostile input. *)

open Threadfuser_trace
module Crc32 = Threadfuser_util.Crc32
module W = Threadfuser_workloads.Workload
module Registry = Threadfuser_workloads.Registry

let access ioff addr size is_store = { Event.ioff; addr; size; is_store }

let sample_events =
  [|
    Event.Block
      {
        func = 0;
        block = 0;
        n_instr = 4;
        accesses = [| access 1 0x1000 8 false; access 2 0x2008 4 true |];
      };
    Event.Call 3;
    Event.Block { func = 3; block = 0; n_instr = 2; accesses = [||] };
    Event.Lock_acq 0x500;
    Event.Skip { reason = Event.Spin; n_instr = 24 };
    Event.Block { func = 3; block = 1; n_instr = 1; accesses = [||] };
    Event.Lock_rel 0x500;
    Event.Return;
    Event.Skip { reason = Event.Io; n_instr = 100 };
    Event.Block { func = 0; block = 1; n_instr = 1; accesses = [||] };
    Event.Return;
  |]

let sample_trace = Thread_trace.of_events 7 sample_events

let test_stats () =
  let s = Thread_trace.stats sample_trace in
  Alcotest.(check int) "traced" 8 s.Thread_trace.traced_instrs;
  Alcotest.(check int) "io" 100 s.Thread_trace.skipped_io;
  Alcotest.(check int) "spin" 24 s.Thread_trace.skipped_spin;
  Alcotest.(check int) "blocks" 4 s.Thread_trace.blocks;
  Alcotest.(check int) "loads" 1 s.Thread_trace.loads;
  Alcotest.(check int) "stores" 1 s.Thread_trace.stores;
  Alcotest.(check int) "locks" 2 s.Thread_trace.lock_ops

let test_file_roundtrip () =
  let path = Filename.temp_file "tftrace" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Pack.to_file path [| sample_trace |];
      let back = Pack.of_file path in
      Alcotest.(check int) "tid" 7 back.(0).Thread_trace.tid)

(* Bytes of the retired TFTRACE1 container: one thread holding one
   excluded Skip. *)
let tftrace1_bytes = "TFTRACE1\x01\x00\x01\x05\x02\x07"

(* Bytes without the TFPACK1 magic, or cut short in the header after it,
   are a typed [Corrupt], never a crash. *)
let test_bad_magic () =
  List.iter
    (fun garbage ->
      match Pack.decode garbage with
      | exception Pack.Corrupt _ -> ()
      | _ -> Alcotest.failf "garbage %S decoded" garbage)
    [ ""; "TFPACK"; "TFPACK1\xff\xff"; "NOTATRACE"; tftrace1_bytes ]

(* Random event generator for the round-trip property. *)
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
      ( 1,
        let* reason = oneofl [ Event.Io; Event.Spin ] in
        let* n_instr = int_range 1 1000 in
        return (Event.Skip { reason; n_instr }) );
    ]

(* Threads of random boxed events, the reference every decoder must
   reproduce column for column. *)
let gen_threads =
  QCheck.Gen.(
    list_size (int_bound 4)
      (pair (int_bound 1000)
         (map Array.of_list (list_size (int_bound 50) gen_event))))

let prop_view_roundtrip =
  QCheck.Test.make ~name:"of_events (to_events t) = t" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_bound 50) gen_event))
    (fun events ->
      let t = Thread_trace.of_events 3 (Array.of_list events) in
      Thread_trace.of_events t.tid (Thread_trace.to_events t) = t
      && Array.for_all2 Event.equal (Thread_trace.to_events t)
           (Array.of_list events))

(* Every column entry is a whole word: values no bit field could hold
   (2^40, -1, max_int, min_int) survive the view and TFPACK1 unchanged.
   TFPACK1 refuses a negative n_instr, so counts stay non-negative. *)
let gen_wide_event =
  let open QCheck.Gen in
  let wide = oneof [ oneofl [ 0; 1; -1; 1 lsl 40; max_int; min_int ]; int ] in
  let count = oneof [ oneofl [ 0; 1; 1 lsl 40; max_int ]; nat ] in
  frequency
    [
      ( 4,
        let* func = wide and* block = wide and* n_instr = count in
        let* accs =
          list_size (int_bound 4)
            (let* ioff = wide and* addr = wide and* size = wide in
             let* is_store = bool in
             return { Event.ioff; addr; size; is_store })
        in
        return
          (Event.Block { func; block; n_instr; accesses = Array.of_list accs })
      );
      (1, map (fun f -> Event.Call f) wide);
      (1, return Event.Return);
      (1, map (fun a -> Event.Lock_acq a) wide);
      (1, map (fun a -> Event.Lock_rel a) wide);
      (1, map (fun a -> Event.Barrier a) wide);
      ( 1,
        let* reason = oneofl [ Event.Io; Event.Spin; Event.Excluded ] in
        let* n_instr = count in
        return (Event.Skip { reason; n_instr }) );
    ]

let prop_wide_lossless =
  QCheck.Test.make ~name:"whole-word columns: view and TFPACK1 lossless"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         list_size (int_bound 4)
           (pair (int_bound 1000)
              (map Array.of_list (list_size (int_bound 40) gen_wide_event)))))
    (fun threads ->
      let ts =
        Array.of_list
          (List.map (fun (tid, evs) -> Thread_trace.of_events tid evs) threads)
      in
      List.for_all2
        (fun (t : Thread_trace.t) (_, evs) ->
          Thread_trace.of_events t.tid (Thread_trace.to_events t) = t
          && Array.for_all2 Event.equal (Thread_trace.to_events t) evs)
        (Array.to_list ts) threads
      && Pack.decode (Pack.encode ts) = ts)

(* The TFPACK1 encoder as a [Buffer] of [write_uint]s, the way the format
   reads in pack.ml's header: the reference the direct-to-bytes encoder
   must reproduce byte for byte. *)
module Reference_encoder = struct
  let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))

  let tag : Thread_trace.kind -> int = function
    | Thread_trace.Block -> 0
    | Thread_trace.Call -> 1
    | Thread_trace.Return -> 2
    | Thread_trace.Lock_acq -> 3
    | Thread_trace.Lock_rel -> 4
    | Thread_trace.Skip -> 5
    | Thread_trace.Barrier -> 6

  let payload (t : Thread_trace.t) =
    let buf = Buffer.create 64 and w = Pack.write_uint in
    let n = Thread_trace.length t in
    w buf n;
    Array.iter (fun k -> Buffer.add_char buf (Char.chr (tag k))) t.events;
    let func = ref 0 and block = ref 0 and call = ref 0 and sync = ref 0 in
    for i = 0 to n - 1 do
      let arg = t.ev.(3 * i) in
      match t.events.(i) with
      | Thread_trace.Block ->
          let b = t.ev.((3 * i) + 1) in
          w buf (zigzag (arg - !func));
          w buf (zigzag (b - !block));
          w buf t.n_instr.(i);
          w buf (t.ev.((3 * i) + 5) - t.ev.((3 * i) + 2));
          func := arg;
          block := b
      | Thread_trace.Call ->
          w buf (zigzag (arg - !call));
          call := arg
      | Thread_trace.Return -> ()
      | Thread_trace.Lock_acq | Thread_trace.Lock_rel | Thread_trace.Barrier ->
          w buf (zigzag (arg - !sync));
          sync := arg
      | Thread_trace.Skip ->
          w buf arg;
          w buf t.n_instr.(i)
    done;
    let addr = ref 0 in
    for j = 0 to Thread_trace.n_accesses t - 1 do
      let a = t.acc.((3 * j) + 1) in
      w buf t.acc.(3 * j);
      w buf (zigzag (a - !addr));
      w buf t.acc.((3 * j) + 2);
      w buf (if Thread_trace.is_store t j then 1 else 0);
      addr := a
    done;
    Buffer.contents buf

  let add_block buf (t : Thread_trace.t) =
    let p = payload t in
    Pack.write_uint buf t.tid;
    Pack.write_uint buf (String.length p);
    Buffer.add_string buf p;
    Crc32.add_le buf (Crc32.string p)

  let encode ts =
    let buf = Buffer.create 256 in
    Buffer.add_string buf Pack.magic;
    Pack.write_uint buf (Array.length ts);
    Array.iter (add_block buf) ts;
    Buffer.contents buf
end

(* Extreme field values: args and addresses at min_int, max_int and
   other negatives, every access size 0..255, empty threads, and tids at
   both ends of the range TFPACK1 accepts. *)
let gen_extreme_threads =
  let open QCheck.Gen in
  let extreme = oneofl [ 0; 1; -1; 127; 128; -64; 1 lsl 56; max_int; min_int; min_int + 1 ] in
  let wide = oneof [ extreme; int ] in
  let count = oneof [ oneofl [ 0; 127; 128; max_int ]; nat ] in
  let event =
    frequency
      [
        ( 4,
          let* func = wide and* block = wide and* n_instr = count in
          let* accs =
            list_size (int_bound 6)
              (let* ioff = wide and* addr = wide and* size = int_bound 255 in
               let* is_store = bool in
               return { Event.ioff; addr; size; is_store })
          in
          return (Event.Block { func; block; n_instr; accesses = Array.of_list accs }) );
        (1, map (fun f -> Event.Call f) wide);
        (1, return Event.Return);
        (1, map (fun a -> Event.Lock_acq a) wide);
        (1, map (fun a -> Event.Lock_rel a) wide);
        (1, map (fun a -> Event.Barrier a) wide);
        ( 1,
          let* reason = oneofl [ Event.Io; Event.Spin; Event.Excluded ] in
          let* n_instr = wide in
          return (Event.Skip { reason; n_instr }) );
      ]
  in
  list_size (int_bound 5)
    (pair
       (oneof [ oneofl [ 0; 127; 128; max_int ]; nat ])
       (map Array.of_list
          (frequency [ (1, return []); (4, list_size (int_bound 60) event) ])))

let prop_encoder_matches_reference =
  QCheck.Test.make ~name:"encode and add_block = Buffer reference, and decode back"
    ~count:300 (QCheck.make gen_extreme_threads) (fun threads ->
      let ts =
        Array.of_list (List.map (fun (tid, evs) -> Thread_trace.of_events tid evs) threads)
      in
      let bytes = Pack.encode ts in
      if bytes <> Reference_encoder.encode ts then
        QCheck.Test.fail_report "Pack.encode differs from the reference";
      Array.iter
        (fun t ->
          let a = Buffer.create 16 and b = Buffer.create 16 in
          Buffer.add_string a "prefix";
          Buffer.add_string b "prefix";
          Pack.add_block a t;
          Reference_encoder.add_block b t;
          if Buffer.contents a <> Buffer.contents b then
            QCheck.Test.fail_report "Pack.add_block differs from the reference")
        ts;
      Pack.decode bytes = ts)

(* Machine-made traces (the tracer's own builder calls) survive the view
   too, on workloads with accesses, locks, barriers, I/O and exclusion. *)
let test_view_roundtrip_workloads () =
  List.iter
    (fun name ->
      let tr = W.trace_cpu ~threads:16 (Registry.find name) in
      Array.iter
        (fun (t : Thread_trace.t) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s tid %d" name t.tid)
            true
            (Thread_trace.of_events t.tid (Thread_trace.to_events t) = t))
        tr.W.traces)
    [ "vectoradd"; "bfs"; "hdsearch-mid"; "fluidanimate"; "pigz"; "rotate" ]

(* The incremental TFPACK1 reader over a whole buffer. *)
let stream_decode s =
  let dec = Stream.create () in
  Stream.feed dec s;
  let rec go acc =
    match Stream.next dec with
    | Stream.Thread tr -> go (tr :: acc)
    | Stream.End_of_stream -> Some (Array.of_list (List.rev acc))
    | Stream.Need_more | Stream.Corrupt _ -> None
  in
  go []

(* TFPACK1, read whole or incrementally, decodes to exactly [of_events]
   of the boxed events it was written from. *)
let prop_decoders_match_view =
  QCheck.Test.make ~name:"decoders yield of_events of the boxed reference"
    ~count:200 (QCheck.make gen_threads) (fun threads ->
      let expected =
        Array.of_list
          (List.map (fun (tid, evs) -> Thread_trace.of_events tid evs) threads)
      in
      Pack.decode (Pack.encode expected) = expected
      && stream_decode (Pack.encode expected) = Some expected)

(* [heap_bytes] is the exact heap the columns occupy, checked against
   the runtime's own count for machine-traced and TFPACK1-decoded traces
   and for an empty trace.  The one difference
   is the empty array: every empty column is the runtime's shared static
   atom, which [heap_bytes] counts as 0 (no trace owns it) and
   [Obj.reachable_words] counts once, as its one header word, however
   many columns point at it. *)
let test_heap_bytes () =
  let word = Sys.word_size / 8 in
  let check tag (t : Thread_trace.t) =
    (* the kind column is as long as [n_instr] *)
    let atom =
      List.exists (fun a -> Array.length a = 0) [ t.n_instr; t.acc ]
    in
    Alcotest.(check int)
      (Printf.sprintf "%s tid %d" tag t.tid)
      (Obj.reachable_words (Obj.repr t) * word)
      (Thread_trace.heap_bytes t + if atom then word else 0)
  in
  let empty = Thread_trace.of_events 5 [||] in
  check "empty" empty;
  Alcotest.(check int) "empty trace: record, ev's end triple and store"
    (word * (7 + 4 + 2))
    (Thread_trace.heap_bytes empty);
  check "sample" sample_trace;
  List.iter
    (fun name ->
      let traces = (W.trace_cpu ~threads:16 (Registry.find name)).W.traces in
      Array.iter (check (name ^ " traced")) traces;
      Array.iter (check (name ^ " TFPACK1")) (Pack.decode (Pack.encode traces)))
    [ "vectoradd"; "bfs"; "hdsearch-mid"; "pigz"; "rotate" ]

(* Event counts per workload, recorded before the trace went columnar:
   [ns_per_event]'s denominator in the end-to-end benchmark, so it cannot
   drift silently.  Every registry workload at its default thread count,
   plus the simulate workload's 11 correlation workloads at 512. *)
let event_counts_golden =
  [
    ("bfs", None, 1479);
    ("nn", None, 2560);
    ("streamcluster", None, 45227);
    ("b+tree", None, 33751);
    ("particlefilter", None, 132196);
    ("bfs-par", None, 4020);
    ("cc", None, 2142);
    ("pagerank", None, 1862);
    ("nbody", None, 33280);
    ("vectoradd", None, 1536);
    ("uncoalesced", None, 1536);
    ("mcrouter-memcached", None, 4006);
    ("mcrouter-mid", None, 9635);
    ("mcrouter-leaf", None, 3968);
    ("textsearch-leaf", None, 50949);
    ("textsearch-mid", None, 64982);
    ("hdsearch-leaf", None, 43787);
    ("hdsearch-mid", None, 99488);
    ("post", None, 22669);
    ("text", None, 27246);
    ("urlshort", None, 6144);
    ("uniqueid", None, 1599);
    ("usertag", None, 18717);
    ("user", None, 4992);
    ("blackscholes", None, 2048);
    ("streamcluster-p", None, 19420);
    ("bodytrack", None, 18271);
    ("facesim", None, 2560);
    ("fluidanimate", None, 9746);
    ("freqmine", None, 1156);
    ("swaptions", None, 119424);
    ("vips", None, 80128);
    ("x264", None, 96817);
    ("pigz", None, 809024);
    ("rotate", None, 33024);
    ("md5", None, 16896);
    ("bfs", Some 512, 3729);
    ("nn", Some 512, 10240);
    ("streamcluster", Some 512, 180525);
    ("b+tree", Some 512, 135777);
    ("particlefilter", Some 512, 540304);
    ("bfs-par", Some 512, 6265);
    ("cc", Some 512, 5785);
    ("pagerank", Some 512, 4894);
    ("nbody", Some 512, 133120);
    ("vectoradd", Some 512, 6144);
    ("uncoalesced", Some 512, 6144);
  ]

let test_event_counts_golden () =
  List.iter
    (fun (name, threads, expected) ->
      let tr = W.trace_cpu ?threads (Registry.find name) in
      Alcotest.(check int)
        (Printf.sprintf "%s at %s threads" name
           (match threads with Some n -> string_of_int n | None -> "default"))
        expected
        (Array.fold_left
           (fun acc (t : Thread_trace.t) -> acc + Array.length t.events)
           0 tr.W.traces))
    event_counts_golden;
  Alcotest.(check int) "every registry workload pinned"
    (List.length Registry.all + List.length Registry.correlation)
    (List.length event_counts_golden)

(* ---- robustness: hostile input must fail with a typed error ----------- *)

module Tf_error = Threadfuser_util.Tf_error

(* A second trace with the sync events the sample lacks, so the sweep also
   exercises barrier decoding and the validator's lock/barrier checks. *)
let sync_trace =
  Thread_trace.of_events 8
    [|
      Event.Block { func = 0; block = 0; n_instr = 2; accesses = [||] };
      Event.Barrier 0x900;
      Event.Lock_acq 0x500;
      Event.Block { func = 0; block = 1; n_instr = 1; accesses = [||] };
      Event.Lock_rel 0x500;
      Event.Return;
    |]

(* Decode + validate; the only acceptable failures are the typed ones. *)
let decode_checked what s =
  match
    let traces = Pack.decode s in
    ignore (Validate.all traces)
  with
  | () -> ()
  | exception Pack.Corrupt _ -> ()
  | exception Tf_error.Error _ -> ()
  | exception e ->
      Alcotest.failf "%s: escaped with %s" what (Printexc.to_string e)

(* Every single-byte truncation and every single-bit flip of a TFPACK1
   file must either decode (possibly to garbage the validator flags) or
   raise [Corrupt] / [Tf_error.Error] — never [Invalid_argument],
   [Not_found], out-of-memory allocation or a hang.  A payload flip
   fails its block's CRC; the flips that get past it are in the block
   headers the CRC does not cover, where a [tid] flip decodes as another
   thread. *)
let test_truncation_sweep () =
  let s = Pack.encode [| sample_trace; sync_trace |] in
  for keep = 0 to String.length s - 1 do
    decode_checked
      (Printf.sprintf "truncate to %d bytes" keep)
      (String.sub s 0 keep)
  done

let test_bitflip_sweep () =
  let s = Pack.encode [| sample_trace; sync_trace |] in
  for off = 0 to String.length s - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string s in
      Bytes.set b off (Char.chr (Char.code s.[off] lxor (1 lsl bit)));
      decode_checked
        (Printf.sprintf "flip byte %d bit %d" off bit)
        (Bytes.to_string b)
    done
  done

(* A run of continuation bytes longer than any honest 63-bit encoding must
   be rejected, not shifted past the word size. *)
let test_overlong_varint () =
  let r = Pack.reader (String.make 12 '\x80') in
  match Pack.read_uint r with
  | exception Pack.Corrupt _ -> ()
  | n -> Alcotest.failf "overlong varint decoded to %d" n

(* -- bounded readers ---------------------------------------------------- *)

let test_reader_bounds () =
  List.iter
    (fun (pos, lim) ->
      Alcotest.check_raises
        (Printf.sprintf "reader pos %d lim %d" pos lim)
        (Invalid_argument "Pack.reader: bad bounds")
        (fun () -> ignore (Pack.reader ~pos ~lim "abc")))
    [ (-1, 3); (2, 1); (0, 4); (0, max_int); (max_int, max_int); (0, -1) ];
  Alcotest.check_raises "pos past the end"
    (Invalid_argument "Pack.reader: bad bounds")
    (fun () -> ignore (Pack.reader ~pos:4 "abc"));
  let r = Pack.reader ~pos:3 "abc" in
  Alcotest.(check int) "empty reader at the end" 3 r.Pack.lim;
  Alcotest.check_raises "read at lim" (Pack.Corrupt "truncated") (fun () ->
      ignore (Pack.read_uint r))

(* [read_uint] stops at [lim] even where [data] continues past it. *)
let test_read_uint_at_lim () =
  let read ?(pos = 0) ~lim data = Pack.read_uint (Pack.reader ~pos ~lim data) in
  let truncated name f =
    Alcotest.check_raises name (Pack.Corrupt "truncated") (fun () ->
        ignore (f ()))
  in
  Alcotest.(check int) "0x7f, one byte" 0x7f (read ~lim:1 "\x7f\x05");
  let r = Pack.reader ~lim:1 "\x7f\x05" in
  ignore (Pack.read_uint r);
  Alcotest.(check int) "one byte consumed" 1 r.Pack.pos;
  truncated "nothing left before lim" (fun () -> Pack.read_uint r);
  Alcotest.(check int) "0x80, two bytes" 0x80 (read ~lim:2 "\x80\x01\x05");
  truncated "0x80 cut at lim" (fun () -> read ~lim:1 "\x80\x01");
  truncated "cut at lim past pos" (fun () -> read ~pos:1 ~lim:3 "\x00\xff\xff\x01");
  let cont = String.make 12 '\x80' in
  truncated "nine continuation bytes" (fun () -> read ~lim:9 cont);
  Alcotest.check_raises "ten continuation bytes" (Pack.Corrupt "overlong varint")
    (fun () -> ignore (read ~lim:10 cont));
  (* a count is checked against the bytes left before [lim] *)
  let r = Pack.reader ~lim:3 "\x03\x00\x00\x00\x00" in
  match Pack.read_count r ~min_bytes:1 "event" with
  | exception Pack.Corrupt _ -> ()
  | n -> Alcotest.failf "count %d accepted with 2 bytes before lim" n

(* A sealed TFPACK1 thread block. *)
let pack_block ~tid payload =
  let b = Buffer.create 16 in
  Pack.write_uint b tid;
  Pack.write_uint b (String.length payload);
  Buffer.add_string b payload;
  Threadfuser_util.Crc32.add_le b (Threadfuser_util.Crc32.string payload);
  Buffer.contents b

(* Two blocks whose first payload (1 event, a Call) ends in a varint with
   its continuation bit set, CRC re-sealed: the decoder, reading in place,
   must stop at that block's end rather than read on into its CRC trailer
   and the next block. *)
let test_block_cannot_read_past_itself () =
  let file first =
    Pack.magic ^ "\x02" ^ pack_block ~tid:0 first
    ^ pack_block ~tid:1 "\x01\x02" (* 1 event: Return *)
  in
  (match Pack.decode (file "\x01\x01\x05") with
  | [| a; b |] ->
      Alcotest.(check (list int)) "well-formed fixture" [ 1; 1 ]
        [ Thread_trace.length a; Thread_trace.length b ]
  | _ -> Alcotest.fail "well-formed fixture did not decode to 2 threads");
  Alcotest.check_raises "dangling varint" (Pack.Corrupt "truncated")
    (fun () -> ignore (Pack.decode (file "\x01\x01\x80")))

(* A count larger than the remaining input must fail as [Corrupt] before
   it sizes anything — not attempt a giant allocation: the thread count,
   and an event count inside a sealed block.  (Block lengths are the
   cache tests' [oversize bound from header].) *)
let test_huge_count () =
  let huge = 0x3FFF_FFFF_FFFF in
  let varint n =
    let b = Buffer.create 8 in
    Pack.write_uint b n;
    Buffer.contents b
  in
  List.iter
    (fun (what, bytes) ->
      match Pack.decode bytes with
      | exception Pack.Corrupt _ -> ()
      | _ -> Alcotest.failf "huge %s accepted" what)
    [
      ("thread count", Pack.magic ^ varint huge);
      ("event count", Pack.magic ^ "\x01" ^ pack_block ~tid:0 (varint huge));
    ]

(* TFPACK1 is the one trace format: a TFTRACE1 file is corrupt input to
   the file loader [check] uses and to the fuzz harness, which reads a
   trace file's bytes the same way. *)
let test_tftrace1_is_corrupt () =
  let path = Filename.temp_file "tftrace1" ".tftrace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc tftrace1_bytes);
      match Pack.of_file path with
      | exception Pack.Corrupt m ->
          Alcotest.(check string) "Pack.of_file" "bad pack magic" m
      | _ -> Alcotest.fail "Pack.of_file: TFTRACE1 file decoded");
  let prog = (W.trace_cpu ~threads:8 (Registry.find "vectoradd")).W.prog in
  (* an odd seed decodes the bytes as they are *)
  match Threadfuser_fault.Fuzz.run_one ~prog ~bytes:tftrace1_bytes ~seed:1 with
  | Threadfuser_fault.Fuzz.Rejected m ->
      Alcotest.(check string) "fuzz rejects" "bad pack magic" m
  | o ->
      Alcotest.failf "fuzz: TFTRACE1 bytes ended %s"
        (Threadfuser_fault.Fuzz.outcome_name o)

(* The validator's structural diagnostics on intact traces. *)
let test_validate () =
  (* each is clean on its own; together they disagree on the barrier
     sequence, which the cross-thread majority vote must flag *)
  List.iter
    (fun t ->
      Alcotest.(check (list string))
        "clean trace" []
        (Validate.all [| t |]
        |> List.filter (fun d -> d.Tf_error.severity = Tf_error.Error)
        |> List.map Tf_error.to_string))
    [ sample_trace; sync_trace ];
  (match
     List.filter
       (fun d -> d.Tf_error.kind = Tf_error.Barrier_mismatch)
       (Validate.all [| sample_trace; sample_trace; sync_trace |])
   with
  | [] -> Alcotest.fail "divergent barrier sequence not flagged"
  | _ -> ());
  let unbalanced =
    Thread_trace.of_events 3
      [|
        Event.Block { func = 0; block = 0; n_instr = 1; accesses = [||] };
        Event.Return;
        Event.Return;
      |]
  in
  (match Validate.all [| unbalanced |] with
  | [] -> Alcotest.fail "extra Return not flagged"
  | d :: _ ->
      Alcotest.(check string)
        "kind" "unbalanced-call"
        (Tf_error.kind_name d.Tf_error.kind));
  let held =
    Thread_trace.of_events 4
      [|
        Event.Lock_acq 0xbeef;
        Event.Block { func = 0; block = 0; n_instr = 1; accesses = [||] };
      |]
  in
  match
    List.filter
      (fun d -> d.Tf_error.kind = Tf_error.Deadlock)
      (Validate.all [| held |])
  with
  | [] -> Alcotest.fail "never-released lock not flagged as deadlock"
  | _ -> ()

(* Access sizes are bounded by [Thread_trace.max_access_size]: a larger
   one is a [Bad_access] diagnostic, and the checked pipeline quarantines
   the thread instead of sizing the coalescer by it. *)
let test_validate_access_size () =
  let block size =
    Thread_trace.of_events 0
      [|
        Event.Block
          { func = 0; block = 0; n_instr = 1; accesses = [| access 0 0x1000 size false |] };
      |]
  in
  let kinds t = List.map (fun d -> Tf_error.kind_name d.Tf_error.kind) (Validate.thread t) in
  Alcotest.(check (list string)) "largest size accepted" []
    (kinds (block Thread_trace.max_access_size));
  Alcotest.(check (list string)) "one past rejected" [ "bad-access" ]
    (kinds (block (Thread_trace.max_access_size + 1)));
  Alcotest.(check (list string)) "2^36 rejected" [ "bad-access" ] (kinds (block (1 lsl 36)));
  let tr = W.trace_cpu ~threads:32 (Registry.find "vectoradd") in
  let traces = Array.map (fun (t : Thread_trace.t) -> { t with acc = Array.copy t.acc }) tr.W.traces in
  (* access 0's size is word 2 of the stride-3 access column *)
  traces.(0).acc.(2) <- 1 lsl 36;
  let c = Threadfuser.Analyzer.analyze_checked tr.W.prog traces in
  Alcotest.(check (list int)) "thread 0 quarantined" [ 0 ]
    (List.map fst c.Threadfuser.Analyzer.quarantined)

(* A crafted value reaches [Validate] as it was written, whether the trace
   is built or decoded from TFPACK1: a function id of 2^40, a block id of
   -1 and an access offset of max_int each draw their diagnostic, naming
   the value. *)
let test_wide_values_reach_validate () =
  let bounds =
    { Validate.func_count = 2; block_count = (fun _ -> 4); block_instrs = None }
  in
  let block ?(accesses = [||]) func block =
    Thread_trace.of_events 0
      [| Event.Block { func; block; n_instr = 2; accesses } |]
  in
  List.iter
    (fun (label, t, kind, value) ->
      List.iter
        (fun (how, t) ->
          match Validate.thread ~bounds t with
          | [ d ] ->
              Alcotest.(check string)
                (Printf.sprintf "%s (%s): kind" label how)
                kind
                (Tf_error.kind_name d.Tf_error.kind);
              Alcotest.(check bool)
                (Printf.sprintf "%s (%s): %S names %s" label how
                   d.Tf_error.message value)
                true
                (let m = d.Tf_error.message and n = String.length value in
                 let rec at i =
                   i + n <= String.length m
                   && (String.sub m i n = value || at (i + 1))
                 in
                 at 0)
          | ds ->
              Alcotest.failf "%s (%s): %d diagnostics" label how
                (List.length ds))
        [ ("built", t); ("TFPACK1", (Pack.decode (Pack.encode [| t |])).(0)) ])
    [
      ("func 2^40", block (1 lsl 40) 0, "bad-block-ref", string_of_int (1 lsl 40));
      ("block -1", block 0 (-1), "bad-block-ref", "f0.b-1");
      ( "ioff max_int",
        block ~accesses:[| access max_int 0x1000 8 false |] 0 0,
        "bad-access",
        string_of_int max_int );
    ]

let prop_varint =
  QCheck.Test.make ~name:"varint roundtrip (signed)" ~count:500
    QCheck.(oneof [ small_signed_int; int ])
    (fun n ->
      let buf = Buffer.create 10 in
      Pack.write_uint buf n;
      let r = Pack.reader (Buffer.contents buf) in
      Pack.read_uint r = n)

(* [read_uint] is on every decoder's hot path: it must not allocate. *)
let test_read_uint_no_alloc () =
  let buf = Buffer.create 64 in
  List.iter (Pack.write_uint buf) [ 0; 1; 127; 128; 300; 1 lsl 40; -1 ];
  let data = Buffer.contents buf in
  let r = Pack.reader data in
  let sum = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    if r.pos = String.length data then r.pos <- 0;
    sum := !sum + Pack.read_uint r
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words over 10,000 reads" 0. words;
  ignore (Sys.opaque_identity !sum)

let () =
  Alcotest.run "trace"
    [
      ( "trace",
        [
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
          QCheck_alcotest.to_alcotest prop_varint;
          Alcotest.test_case "read_uint does not allocate" `Quick
            test_read_uint_no_alloc;
        ] );
      ( "flat form",
        [
          QCheck_alcotest.to_alcotest prop_view_roundtrip;
          Alcotest.test_case "view round-trips machine traces" `Quick
            test_view_roundtrip_workloads;
          QCheck_alcotest.to_alcotest prop_decoders_match_view;
          QCheck_alcotest.to_alcotest prop_wide_lossless;
          Alcotest.test_case "event counts golden" `Quick
            test_event_counts_golden;
          Alcotest.test_case "heap_bytes matches the runtime" `Quick
            test_heap_bytes;
          QCheck_alcotest.to_alcotest prop_encoder_matches_reference;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "truncation sweep" `Quick test_truncation_sweep;
          Alcotest.test_case "bit-flip sweep" `Quick test_bitflip_sweep;
          Alcotest.test_case "overlong varint" `Quick test_overlong_varint;
          Alcotest.test_case "huge length header" `Quick test_huge_count;
          Alcotest.test_case "reader bounds" `Quick test_reader_bounds;
          Alcotest.test_case "read_uint at lim" `Quick test_read_uint_at_lim;
          Alcotest.test_case "block cannot read past itself" `Quick
            test_block_cannot_read_past_itself;
          Alcotest.test_case "TFTRACE1 bytes are corrupt input" `Quick
            test_tftrace1_is_corrupt;
          Alcotest.test_case "validate diagnostics" `Quick test_validate;
          Alcotest.test_case "validate access size" `Quick test_validate_access_size;
          Alcotest.test_case "wide values reach validate" `Quick
            test_wide_values_reach_validate;
        ] );
    ]
