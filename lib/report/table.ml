(** Aligned text tables and CSV emission for the experiment harness. *)

type align = L | R

type t = {
  columns : (string * align) list;
  mutable rows : string list list; (* reversed *)
}

let create columns = { columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg "Table.add_row: cell count mismatch";
  t.rows <- cells :: t.rows

(* Formatting helpers for common cell types. *)
let cell_float ?(digits = 2) v = Printf.sprintf "%.*f" digits v

let cell_pct ?(digits = 1) v = Printf.sprintf "%.*f%%" digits (100.0 *. v)

let cell_int v = string_of_int v

let render ppf t =
  let rows = List.rev t.rows in
  let headers = List.map fst t.columns in
  let widths =
    List.mapi
      (fun i (h, _) ->
        List.fold_left
          (fun w row -> max w (String.length (List.nth row i)))
          (String.length h) rows)
      t.columns
  in
  let pad align width s =
    let n = width - String.length s in
    if n <= 0 then s
    else
      match align with
      | L -> s ^ String.make n ' '
      | R -> String.make n ' ' ^ s
  in
  let print_row cells =
    let padded =
      List.map2
        (fun (w, (_, a)) c -> pad a w c)
        (List.combine widths t.columns)
        cells
    in
    Fmt.pf ppf "  %s@." (String.concat "  " padded)
  in
  print_row headers;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

(* Optional CSV artifact directory: when set, [print ~name] also writes
   <dir>/<name>.csv so every figure's data is machine-readable. *)
let csv_dir : string option ref = ref None

let set_csv_dir d = csv_dir := d

let to_csv t =
  let buf = Buffer.create 256 in
  let quote s =
    if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
      "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
    else s
  in
  let row cells = Buffer.add_string buf (String.concat "," (List.map quote cells) ^ "\n") in
  row (List.map fst t.columns);
  List.iter row (List.rev t.rows);
  Buffer.contents buf

let print ?name t =
  render Fmt.stdout t;
  match (!csv_dir, name) with
  | Some dir, Some name ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (name ^ ".csv") in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (to_csv t));
      Fmt.pr "  [csv: %s]@." path
  | _ -> ()
