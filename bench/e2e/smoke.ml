(* Smoke test of tfbench, run by `dune runtest`: one traced pass of every
   workload.  It checks that tfbench exits 0 (every output digest
   matched), that every metric BENCHMARK.json names is printed with its
   unit for every workload it names, that the result line carries every
   per-layer one, that the Chrome trace parses, and that no span's self
   time is negative.

     smoke.exe TFBENCH DIGESTS BENCHMARK_JSON *)

module Json = Threadfuser_report.Json

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("smoke: " ^ m);
      exit 1)
    fmt

let parse path =
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error m -> fail "%s does not parse: %s" path m

let get k j =
  match Json.member k j with Some v -> v | None -> fail "no %S field" k

let str k j =
  match Json.to_string_opt (get k j) with Some s -> s | None -> fail "%S is not a string" k

let num k j =
  match Json.to_float_opt (get k j) with Some f -> f | None -> fail "%S is not a number" k

let list = function Json.List l -> l | _ -> fail "expected a JSON list"

let () =
  if Array.length Sys.argv <> 4 then fail "usage: smoke.exe TFBENCH DIGESTS BENCHMARK_JSON";
  let tfbench = Sys.argv.(1) and digests = Sys.argv.(2) in
  let bench = parse Sys.argv.(3) in
  let trace = "smoke-trace.json" in
  let ic =
    Unix.open_process_args_in tfbench
      [|
        tfbench; "--passes"; "1"; "--trace"; "1";
        "--trace-out"; trace; "--digests"; digests;
      |]
  in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> fail "tfbench exited %d" c
  | _ -> fail "tfbench was killed");
  (* "<workload> <metric> <value> <unit>" lines *)
  let printed = Hashtbl.create 256 in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ wl; name; v; unit ] when Float.of_string_opt v <> None ->
          Hashtbl.replace printed (wl, name) unit
      | _ -> ())
    (String.split_on_char '\n' out);
  let workloads = List.map (str "name") (list (get "workloads" bench)) in
  let metrics =
    List.map
      (fun m -> (str "name" m, str "unit" m))
      (list (get "end_to_end" bench) @ list (get "per_layer" bench))
  in
  List.iter
    (fun wl ->
      List.iter
        (fun (name, unit) ->
          match Hashtbl.find_opt printed (wl, name) with
          | Some u when u = unit -> ()
          | Some u -> fail "%s %s printed in %s; BENCHMARK.json says %s" wl name u unit
          | None -> fail "%s: %s not printed" wl name)
        metrics)
    workloads;
  (* the result line of a traced run: every per-layer metric, per workload *)
  let last =
    match List.rev (String.split_on_char '\n' (String.trim out)) with
    | l :: _ -> l
    | [] -> fail "tfbench printed nothing"
  in
  let line =
    match Json.parse last with Ok j -> j | Error m -> fail "result line: %s" m
  in
  if Json.member "correct" line <> Some (Json.Bool true) then fail "result line is not correct";
  List.iter
    (fun wl ->
      List.iter
        (fun m ->
          let key = wl ^ "/" ^ str "name" m in
          match Json.member key (get "metrics" line) with
          | Some v when str "unit" v = str "unit" m -> ()
          | _ -> fail "result line lacks %s in %s" key (str "unit" m))
        (list (get "per_layer" bench)))
    workloads;
  (* self time = duration minus the children's; ids are per process row *)
  let spans =
    List.filter_map
      (fun e ->
        if str "ph" e <> "X" then None
        else
          let args = get "args" e in
          let pid = int_of_float (num "pid" e) in
          Some ((pid, int_of_float (num "id" args)), (pid, int_of_float (num "parent" args)), num "dur" e))
      (list (get "traceEvents" (parse trace)))
  in
  if spans = [] then fail "%s holds no spans" trace;
  let children = Hashtbl.create 1024 in
  List.iter
    (fun (_, parent, dur) ->
      Hashtbl.replace children parent
        (dur +. Option.value ~default:0. (Hashtbl.find_opt children parent)))
    spans;
  List.iter
    (fun (((pid, id) as key), _, dur) ->
      let self = dur -. Option.value ~default:0. (Hashtbl.find_opt children key) in
      (* 1 ns of slack for float rounding of microsecond timestamps *)
      if self < -1e-3 then fail "span %d of process %d has self time %g us" id pid self)
    spans;
  Printf.printf "smoke: %d workloads x %d metrics printed; %d spans, no negative self time\n"
    (List.length workloads) (List.length metrics) (List.length spans)
