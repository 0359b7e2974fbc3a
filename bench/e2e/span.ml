(* The traced run's span recorder.  Spans are taken from the benchmark's
   own code, around calls into each layer's public functions, so the
   program under test runs exactly the code an untraced run does.  They
   stay in memory and are exported once, at exit, as Chrome trace-event
   JSON (loads in ui.perfetto.dev). *)

module Json = Threadfuser_report.Json

type t = {
  id : int;
  parent : int;  (** enclosing span's id; -1 at the root *)
  item : int;  (** item occurrence the span belongs to; -1 in set-up *)
  name : string;
  t0 : float;  (** seconds (Unix.gettimeofday) *)
  t1 : float;
  words : float;  (** minor-heap words allocated inside the span *)
}

let recording = ref false
let current_item = ref (-1)
let log : t list ref = ref []
let open_spans : int list ref = ref []
let next_id = ref 0

(* [record name f] runs [f ()]; while recording it also logs a span
   nested under the innermost open one. *)
let record name f =
  if not !recording then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let item = !current_item in
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        let words = Gc.minor_words () -. w0 in
        open_spans := List.tl !open_spans;
        log := { id; parent; item; name; t0; t1; words } :: !log)
  end

let dur s = s.t1 -. s.t0

(* Chronological spans, and each span's self time (its duration minus
   the part its children cover), keyed by id. *)
let self_times spans =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  fun s -> dur s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)

(* Trace events for one process row; [base] is the trace's time origin
   (seconds) and [extra] adds per-span args. *)
let chrome_events ~pid ~label ~base ?(extra = fun _ -> []) spans =
  let self = self_times spans in
  let us t = Json.Float ((t -. base) *. 1e6) in
  Json.Obj
    [
      ("name", Json.String "process_name");
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("args", Json.Obj [ ("name", Json.String label) ]);
    ]
  :: List.map
       (fun s ->
         Json.Obj
           [
             ("name", Json.String s.name);
             ("cat", Json.String "tfbench");
             ("ph", Json.String "X");
             ("ts", us s.t0);
             ("dur", Json.Float (dur s *. 1e6));
             ("pid", Json.Int pid);
             ("tid", Json.Int 1);
             ( "args",
               Json.Obj
                 ([
                    ("id", Json.Int s.id);
                    ("parent", Json.Int s.parent);
                    ("item", Json.Int s.item);
                    ("self_us", Json.Float (self s *. 1e6));
                    ("minor_words", Json.Float s.words);
                  ]
                 @ extra s) );
           ])
       spans
