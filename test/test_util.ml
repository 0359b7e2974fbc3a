(* Unit and property tests for the utility library (Vec, Lcg, Crc32). *)

open Threadfuser_util

let test_vec_push_pop () =
  let v = Vec.create 0 in
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  for i = 1 to 100 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 41);
  Alcotest.(check int) "top" 100 (Vec.top v);
  Alcotest.(check int) "pop" 100 (Vec.pop v);
  Alcotest.(check int) "length after pop" 99 (Vec.length v)

let test_vec_to_array () =
  let v = Vec.create ~capacity:2 0 in
  List.iter (Vec.push v) [ 5; 6; 7 ];
  Alcotest.(check (array int)) "to_array" [| 5; 6; 7 |] (Vec.to_array v)

let test_vec_clear () =
  let v = Vec.create 0 in
  List.iter (Vec.push v) [ 1; 2; 3 ];
  Vec.clear v;
  Alcotest.(check int) "cleared" 0 (Vec.length v);
  Vec.push v 9;
  Alcotest.(check int) "reusable" 9 (Vec.get v 0)

let test_vec_fold_iter () =
  let v = Vec.of_array 0 [| 1; 2; 3; 4 |] in
  Alcotest.(check int) "fold" 10 (Vec.fold_left ( + ) 0 v);
  let seen = ref [] in
  Vec.iteri (fun i x -> seen := (i, x) :: !seen) v;
  Alcotest.(check int) "iteri count" 4 (List.length !seen);
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 3) v);
  Alcotest.(check bool) "not exists" false (Vec.exists (fun x -> x = 9) v)

let test_vec_errors () =
  let v = Vec.create 0 in
  Alcotest.check_raises "get out of range" (Invalid_argument "Vec.get")
    (fun () -> ignore (Vec.get v 0));
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop") (fun () ->
      ignore (Vec.pop v))

let test_lcg_deterministic () =
  let a = Lcg.create 42 and b = Lcg.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Lcg.int a 1000) (Lcg.int b 1000)
  done

let test_lcg_seed_sensitivity () =
  let a = Lcg.create 1 and b = Lcg.create 2 in
  let sa = List.init 20 (fun _ -> Lcg.int a 1_000_000) in
  let sb = List.init 20 (fun _ -> Lcg.int b 1_000_000) in
  Alcotest.(check bool) "different streams" true (sa <> sb)

let prop_vec_roundtrip =
  QCheck.Test.make ~name:"vec of_array/to_array roundtrip" ~count:200
    QCheck.(array small_int)
    (fun a -> Vec.to_array (Vec.of_array 0 a) = a)

let prop_lcg_bounds =
  QCheck.Test.make ~name:"lcg int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let g = Lcg.create seed in
      let v = Lcg.int g bound in
      v >= 0 && v < bound)

let prop_lcg_range =
  QCheck.Test.make ~name:"lcg int_range inclusive bounds" ~count:500
    QCheck.(triple small_int (int_range (-100) 100) (int_range 0 100))
    (fun (seed, lo, span) ->
      let g = Lcg.create seed in
      let v = Lcg.int_range g lo (lo + span) in
      v >= lo && v <= lo + span)

let prop_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (array small_int))
    (fun (seed, a) ->
      let b = Array.copy a in
      Lcg.shuffle (Lcg.create seed) b;
      List.sort compare (Array.to_list a) = List.sort compare (Array.to_list b))

(* --- stream splitting: derived per-task seeds ----------------------- *)

let draws g n = List.init n (fun _ -> Lcg.bits g)

let prop_derive_distinct =
  QCheck.Test.make ~name:"derive gives distinct seeds per index" ~count:200
    QCheck.(pair int (int_range 0 500))
    (fun (seed, base_index) ->
      let seeds =
        List.init 64 (fun i -> Lcg.derive ~seed ~index:(base_index + i))
      in
      List.length (List.sort_uniq compare seeds) = 64)

let prop_derive_streams_disjoint =
  (* sibling streams must not overlap within a realistic draw count: 256
     draws from each of two adjacent children share no values *)
  QCheck.Test.make ~name:"derived sibling streams do not overlap" ~count:100
    QCheck.(pair int (int_range 0 1000))
    (fun (seed, index) ->
      let a = draws (Lcg.create (Lcg.derive ~seed ~index)) 256 in
      let b = draws (Lcg.create (Lcg.derive ~seed ~index:(index + 1))) 256 in
      let seen = Hashtbl.create 512 in
      List.iter (fun v -> Hashtbl.replace seen v ()) a;
      not (List.exists (Hashtbl.mem seen) b))

let prop_derive_deterministic =
  QCheck.Test.make ~name:"derive is a pure function" ~count:500
    QCheck.(pair int (int_range 0 10_000))
    (fun (seed, index) ->
      Lcg.derive ~seed ~index = Lcg.derive ~seed ~index
      && Lcg.derive ~seed ~index >= 0)

let test_derive_negative_index () =
  Alcotest.check_raises "index must be non-negative"
    (Invalid_argument "Lcg.derive") (fun () ->
      ignore (Lcg.derive ~seed:1 ~index:(-1)))

let prop_split_decorrelated =
  QCheck.Test.make ~name:"split child shares no draws with parent" ~count:100
    QCheck.int
    (fun seed ->
      let parent = Lcg.create seed in
      let child = Lcg.split parent in
      let a = draws parent 128 in
      let b = draws child 128 in
      let seen = Hashtbl.create 256 in
      List.iter (fun v -> Hashtbl.replace seen v ()) a;
      not (List.exists (Hashtbl.mem seen) b))

let test_hash_string () =
  Alcotest.(check int)
    "deterministic" (Lcg.hash_string "bfs.w32.O1.s1")
    (Lcg.hash_string "bfs.w32.O1.s1");
  Alcotest.(check bool) "non-negative" true (Lcg.hash_string "" >= 0);
  let names = [ ""; "a"; "b"; "ab"; "ba"; "bfs"; "pigz"; "hdsearch-mid" ] in
  let hashes = List.map Lcg.hash_string names in
  Alcotest.(check int)
    "no collisions on registry-like names"
    (List.length names)
    (List.length (List.sort_uniq compare hashes))

(* -- Crc32 --------------------------------------------------------------- *)

(* The textbook reflected CRC-32, one bit at a time: an oracle that shares
   no table with the slicing-by-8 code under test.  Encode and decode both
   call [Crc32], so a wrong CRC would still round-trip; only an oracle
   catches it. *)
let crc_ref s =
  let c = ref 0xffffffff in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 1 to 8 do
        c := if !c land 1 <> 0 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  !c lxor 0xffffffff

let test_crc_known_answers () =
  Alcotest.(check int) "check value" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  Alcotest.(check int) "empty substring" 0 (Crc32.update 0 "abc" 3 0);
  Alcotest.(check int)
    "zeros" (crc_ref (String.make 37 '\000'))
    (Crc32.string (String.make 37 '\000'))

(* Every start offset mod 8 and every length 0..100 of one random buffer:
   the 8-byte loop, the byte tail and their seam all meet the oracle. *)
let test_crc_offsets_lengths () =
  let rng = Lcg.create 20 in
  let s = String.init 120 (fun _ -> Char.chr (Lcg.int rng 256)) in
  for off = 0 to 7 do
    for len = 0 to 100 do
      Alcotest.(check int)
        (Printf.sprintf "off %d len %d" off len)
        (crc_ref (String.sub s off len))
        (Crc32.update 0 s off len)
    done
  done

let prop_crc_matches_reference =
  QCheck.Test.make ~name:"slicing-by-8 update = bitwise reference" ~count:500
    QCheck.(triple (string_of_size Gen.(int_bound 100)) (int_bound 7) string)
    (fun (body, off, tail) ->
      let s = String.make off 'p' ^ body ^ tail in
      Crc32.update 0 s off (String.length body) = crc_ref body
      && Crc32.string s = crc_ref s)

let prop_crc_split =
  QCheck.Test.make ~name:"update (update 0 a) b = string (a ^ b)" ~count:500
    QCheck.(pair string string)
    (fun (a, b) ->
      let ab = a ^ b in
      Crc32.update (Crc32.update 0 a 0 (String.length a)) b 0 (String.length b)
      = Crc32.string ab
      && Crc32.string ab = crc_ref ab)

(* [pos + len] would wrap negative and pass a naive bound; the checks
   must refuse it before any unchecked read. *)
let test_crc_bounds () =
  let bad_update pos len =
    Alcotest.check_raises
      (Printf.sprintf "update pos %d len %d" pos len)
      (Invalid_argument "Crc32.update: bad substring")
      (fun () -> ignore (Crc32.update 0 "abc" pos len))
  in
  List.iter
    (fun (pos, len) -> bad_update pos len)
    [ (1, max_int); (max_int, 1); (-1, 1); (0, -1); (4, 0); (0, 4) ];
  let bad_read pos =
    Alcotest.check_raises
      (Printf.sprintf "read_le pos %d" pos)
      (Invalid_argument "Crc32.read_le: out of bounds")
      (fun () -> ignore (Crc32.read_le "abcd" pos))
  in
  List.iter bad_read [ max_int - 2; max_int; 1; -1 ];
  let b = Buffer.create 4 in
  Crc32.add_le b 0xCBF43926;
  Alcotest.(check int) "read_le . add_le" 0xCBF43926
    (Crc32.read_le (Buffer.contents b) 0)

let () =
  Alcotest.run "util"
    [
      ( "vec",
        [
          Alcotest.test_case "push/pop" `Quick test_vec_push_pop;
          Alcotest.test_case "to_array" `Quick test_vec_to_array;
          Alcotest.test_case "clear" `Quick test_vec_clear;
          Alcotest.test_case "fold/iter" `Quick test_vec_fold_iter;
          Alcotest.test_case "errors" `Quick test_vec_errors;
          QCheck_alcotest.to_alcotest prop_vec_roundtrip;
        ] );
      ( "lcg",
        [
          Alcotest.test_case "deterministic" `Quick test_lcg_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_lcg_seed_sensitivity;
          QCheck_alcotest.to_alcotest prop_lcg_bounds;
          QCheck_alcotest.to_alcotest prop_lcg_range;
          QCheck_alcotest.to_alcotest prop_shuffle_permutation;
        ] );
      ( "lcg-streams",
        [
          QCheck_alcotest.to_alcotest prop_derive_distinct;
          QCheck_alcotest.to_alcotest prop_derive_streams_disjoint;
          QCheck_alcotest.to_alcotest prop_derive_deterministic;
          Alcotest.test_case "derive rejects negative index" `Quick
            test_derive_negative_index;
          QCheck_alcotest.to_alcotest prop_split_decorrelated;
          Alcotest.test_case "hash_string" `Quick test_hash_string;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known answers" `Quick test_crc_known_answers;
          Alcotest.test_case "every offset mod 8, lengths 0..100" `Quick
            test_crc_offsets_lengths;
          QCheck_alcotest.to_alcotest prop_crc_matches_reference;
          QCheck_alcotest.to_alcotest prop_crc_split;
          Alcotest.test_case "overflow-safe bounds" `Quick test_crc_bounds;
        ] );
    ]
