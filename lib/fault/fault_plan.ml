(** Ordered-arm fault plans: one percentage check and one draw loop for
    every seeded injector, so decisions stay a pure function of the
    stream and the arm order; plus the reader of [--fault] specs. *)

module Lcg = Threadfuser_util.Lcg

type 'a t = (int * (Lcg.t -> 'a)) list

let make ~who arms =
  if List.exists (fun (pct, _) -> pct < 0 || pct > 100) arms then
    invalid_arg (who ^ ": percentages must be in 0..100");
  arms

let draw arms ~stream ~none =
  let g = Lcg.create stream in
  let rec go = function
    | [] -> none
    | (pct, fire) :: rest -> if Lcg.chance g pct 100 then fire g else go rest
  in
  go arms

type spec = { who : string; items : (string * string) list }

let spec ~who ~keys s =
  let fail fmt = Printf.ksprintf (fun m -> invalid_arg (who ^ ": " ^ m)) fmt in
  if s = "" then fail "empty fault spec";
  let item seen i =
    let k, v =
      match String.index_opt i '=' with
      | None -> (i, None)
      | Some n ->
          let rest = String.sub i (n + 1) (String.length i - n - 1) in
          (String.sub i 0 n, Some rest)
    in
    if List.mem_assoc k seen then fail "duplicate key %S" k;
    if not (List.mem k keys) then
      fail "unknown key %S (known: %s)" k (String.concat ", " keys);
    match v with
    | Some v -> (k, v) :: seen
    | None -> fail "%s needs a value (%s=...)" k k
  in
  { who; items = List.fold_left item [] (String.split_on_char ',' s) }

let value conv what s k =
  List.assoc_opt k s.items
  |> Option.map (fun v ->
         match conv v with
         | Some x -> x
         | None ->
             invalid_arg (Printf.sprintf "%s: %s=%s is not %s" s.who k v what))

let int = value int_of_string_opt "an integer"
let float = value float_of_string_opt "a number"
