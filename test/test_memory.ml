(* Tests for the paged memory model: widths, endianness, page-crossing
   accesses, host helpers, and sparsity. *)

open Threadfuser_isa
module Memory = Threadfuser_machine.Memory
module Layout = Threadfuser_machine.Layout

let test_zero_initialised () =
  let m = Memory.create () in
  Alcotest.(check int) "untouched w8" 0 (Memory.load m ~width:Width.W8 0x1234);
  Alcotest.(check int) "untouched byte" 0 (Memory.load_byte m 999_999_999)

let test_widths_roundtrip () =
  let m = Memory.create () in
  List.iter
    (fun (w, v, expect) ->
      Memory.store m ~width:w 0x4000 v;
      Alcotest.(check int)
        (Fmt.str "%a" Width.pp w)
        expect
        (Memory.load m ~width:w 0x4000))
    [
      (Width.W1, 0x1ff, 0xff);
      (Width.W2, 0x1ffff, 0xffff);
      (Width.W4, 0x1ffffffff, 0xffffffff);
      (Width.W8, 0x1234_5678_9abc, 0x1234_5678_9abc);
    ]

let test_little_endian () =
  let m = Memory.create () in
  Memory.store m ~width:Width.W8 0x4000 0x0807060504030201;
  for i = 0 to 7 do
    Alcotest.(check int) (Printf.sprintf "byte %d" i) (i + 1)
      (Memory.load_byte m (0x4000 + i))
  done

let test_page_crossing () =
  let m = Memory.create () in
  (* 4 KiB pages: an 8-byte store at page_end-4 spans two pages *)
  let addr = 0x5000 - 4 in
  Memory.store m ~width:Width.W8 addr 0x1122334455667788;
  Alcotest.(check int) "cross-page load" 0x1122334455667788
    (Memory.load m ~width:Width.W8 addr);
  (* the halves landed on the right pages *)
  Alcotest.(check int) "low half" 0x55667788 (Memory.load m ~width:Width.W4 addr);
  Alcotest.(check int) "high half" 0x11223344
    (Memory.load m ~width:Width.W4 (addr + 4))

let test_partial_overwrite () =
  let m = Memory.create () in
  Memory.store m ~width:Width.W8 0x4000 (-1);
  Memory.store m ~width:Width.W2 0x4002 0;
  Alcotest.(check int) "middle hole" 0xffff0000ffff
    (Memory.load m ~width:Width.W8 0x4000 land 0xffffffffffff)

let test_array_helpers () =
  let m = Memory.create () in
  let a = [| 3; 1; 4; 1; 5; 9; 2; 6 |] in
  Memory.store_array64 m 0x8000 a;
  Alcotest.(check (array int)) "roundtrip" a (Memory.load_array64 m 0x8000 8);
  Memory.store_string m 0x9000 "ocaml";
  Alcotest.(check int) "string byte" (Char.code 'a') (Memory.load_byte m 0x9002)

let test_sparsity () =
  let m = Memory.create () in
  Memory.store_byte m 0 1;
  Memory.store_byte m (Layout.stack_top 100 - 1) 1;
  Memory.store_byte m Layout.heap_base 1;
  (* touching three far-apart addresses allocates only a few pages *)
  Alcotest.(check bool) "sparse" true (Memory.touched_pages m <= 4)

let test_negative_address_rejected () =
  let m = Memory.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Memory: negative address")
    (fun () -> ignore (Memory.load_byte m (-1)))

let test_segments () =
  Alcotest.(check bool) "global" true (Layout.segment_of 0x20000 = Layout.Global);
  Alcotest.(check bool) "heap" true
    (Layout.segment_of (Layout.heap_base + 8) = Layout.Heap);
  Alcotest.(check bool) "stack" true
    (Layout.segment_of (Layout.stack_top 3 - 8) = Layout.Stack);
  (* thread regions do not overlap *)
  Alcotest.(check bool) "regions disjoint" true
    (Layout.stack_top 0 <= Layout.stack_low 1);
  Alcotest.(check bool) "tls inside stack region" true
    (Layout.tls_base 5 >= Layout.stack_low 5
    && Layout.tls_base 5 + Layout.tls_size < Layout.stack_top 5)

let prop_store_load_roundtrip =
  QCheck.Test.make ~name:"w8 store/load roundtrip at random addresses" ~count:300
    QCheck.(pair (int_bound 1_000_000) int)
    (fun (addr, v) ->
      let m = Memory.create () in
      Memory.store m ~width:Width.W8 addr v;
      Memory.load m ~width:Width.W8 addr = v)

let prop_disjoint_stores_independent =
  QCheck.Test.make ~name:"disjoint stores do not interfere" ~count:200
    QCheck.(triple (int_bound 100_000) (int_bound 100_000) (pair int int))
    (fun (a1, a2, (v1, v2)) ->
      QCheck.assume (abs (a1 - a2) >= 8);
      let m = Memory.create () in
      Memory.store m ~width:Width.W8 a1 v1;
      Memory.store m ~width:Width.W8 a2 v2;
      Memory.load m ~width:Width.W8 a1 = v1 && Memory.load m ~width:Width.W8 a2 = v2)

(* Lookups go through a small direct-mapped page cache: pages that share
   a slot must never read each other.  512 thread stacks, 64 KiB apart,
   and 512 pages 256 pages apart are more pages than the cache has slots,
   so some of each set share one; every page is written, then all are
   read back, twice, in interleaved order. *)
let test_page_cache_keeps_pages_apart () =
  let m = Memory.create () in
  let addrs =
    List.init 512 (fun tid -> Layout.stack_top tid - 8)
    @ List.init 512 (fun i -> 0x10_0000 + (i * 256 * 4096))
  in
  let expected = List.mapi (fun i a -> (a, i + 1)) addrs in
  List.iter (fun (a, v) -> Memory.store_i64 m a v) expected;
  for _ = 1 to 2 do
    List.iter
      (fun (a, v) ->
        Alcotest.(check int) (Printf.sprintf "page of 0x%x" a) v (Memory.load_i64 m a))
      (List.rev expected)
  done;
  Alcotest.(check int) "pages" 1024 (Memory.touched_pages m)

let () =
  Alcotest.run "memory"
    [
      ( "memory",
        [
          Alcotest.test_case "zero initialised" `Quick test_zero_initialised;
          Alcotest.test_case "widths" `Quick test_widths_roundtrip;
          Alcotest.test_case "little endian" `Quick test_little_endian;
          Alcotest.test_case "page crossing" `Quick test_page_crossing;
          Alcotest.test_case "partial overwrite" `Quick test_partial_overwrite;
          Alcotest.test_case "array helpers" `Quick test_array_helpers;
          Alcotest.test_case "sparsity" `Quick test_sparsity;
          Alcotest.test_case "negative address" `Quick test_negative_address_rejected;
          Alcotest.test_case "segments" `Quick test_segments;
          Alcotest.test_case "page cache keeps pages apart" `Quick
            test_page_cache_keeps_pages_apart;
          QCheck_alcotest.to_alcotest prop_store_load_roundtrip;
          QCheck_alcotest.to_alcotest prop_disjoint_stores_independent;
        ] );
    ]
