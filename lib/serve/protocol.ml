(** The serve session protocol (docs/robustness.md §8).

    A session is one connection to the daemon's Unix-domain socket:

    {v
      client                          server
        |  ---- connect ---->           |
        |  <--- status frame  (ready | busy)
        |  ---- TFPACK1 file bytes ---> |   (any chunking; self-delimiting)
        |  <--- status frame  (ok | degraded | error | timeout)
        |  <--- report frame  (raw report JSON; iff status.report)
        |  <--- close                   |
    v}

    The request side needs no framing of its own: a TFPACK1 file is
    self-delimiting, since its header counts the thread blocks that
    follow and each block carries its length ({!Threadfuser_trace.Stream}
    reads it incrementally).
    Replies are length-prefixed frames (4-byte big-endian length + payload)
    so the client can read a status object and a report of known size
    without sniffing for a terminator.  The status payload is a JSON
    object; the report payload is the {e exact} bytes of
    [Report_json.to_string], so a streamed report can be compared
    byte-for-byte against batch [threadfuser analyze --json] output. *)

module Json = Threadfuser_report.Json
module Tf_error = Threadfuser_util.Tf_error

(* -- reply framing ------------------------------------------------------ *)

(** Bound on a single reply frame — far above any real report, far below
    an allocation-of-death. *)
let max_frame_bytes = 1 lsl 28

let add_frame buf payload =
  let n = String.length payload in
  if n > max_frame_bytes then invalid_arg "Protocol.add_frame: frame too large";
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (n land 0xff));
  Buffer.add_string buf payload

let frame payload =
  let buf = Buffer.create (String.length payload + 4) in
  add_frame buf payload;
  Buffer.contents buf

(* Blocking reads, for the client side (the daemon never block-reads). *)

let read_exact fd n =
  let b = Bytes.create n in
  let rec go off =
    if off < n then begin
      let r = Unix.read fd b off (n - off) in
      if r = 0 then raise End_of_file;
      go (off + r)
    end
  in
  go 0;
  Bytes.unsafe_to_string b

let read_frame fd =
  let hdr = read_exact fd 4 in
  let b i = Char.code hdr.[i] in
  let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  if n > max_frame_bytes then
    Tf_error.fail Tf_error.Corrupt_input
      "reply frame of %d bytes exceeds the %d-byte bound" n max_frame_bytes;
  read_exact fd n

let write_all fd s =
  let n = String.length s in
  let b = Bytes.unsafe_of_string s in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

(* -- admin (STATS) requests --------------------------------------------- *)

(* The daemon's admin socket speaks one line-oriented request per
   connection: ["STATS json\n"] or ["STATS prom\n"] (case-insensitive;
   bare ["STATS"] means JSON).  The answer is a single reply frame —
   the JSON status document or the Prometheus text exposition — after
   which the daemon closes.  Line-oriented on purpose: the request is
   scrape-tool friendly (socat/netcat work), and the reply reuses the
   session frame so clients share [read_frame]. *)

(** Bound on an admin request line; longer is answered with an error. *)
let max_admin_request = 256

type stats_format = Stats_json | Stats_prom

let stats_request = function
  | Stats_json -> "STATS json\n"
  | Stats_prom -> "STATS prom\n"

let parse_stats_request line =
  match String.lowercase_ascii (String.trim line) with
  | "stats" | "stats json" -> Some Stats_json
  | "stats prom" -> Some Stats_prom
  | _ -> None

(* -- status objects ----------------------------------------------------- *)

type status =
  | Ready
  | Busy  (** session shed: the daemon is at [--max-sessions] *)
  | Ok_report
  | Degraded  (** partial report: threads quarantined or coverage lost *)
  | Error_reply  (** typed failure; [kind] says which *)
  | Timeout  (** the per-session deadline expired *)

let status_name = function
  | Ready -> "ready"
  | Busy -> "busy"
  | Ok_report -> "ok"
  | Degraded -> "degraded"
  | Error_reply -> "error"
  | Timeout -> "timeout"

let status_of_name = function
  | "ready" -> Some Ready
  | "busy" -> Some Busy
  | "ok" -> Some Ok_report
  | "degraded" -> Some Degraded
  | "error" -> Some Error_reply
  | "timeout" -> Some Timeout
  | _ -> None

type reply = {
  status : status;
  kind : string option;  (** {!Tf_error.kind_name} when error/timeout *)
  message : string option;
  threads : int;  (** threads the session ingested *)
  quarantined : int;
  diagnostics : string list;  (** leading diagnostics, rendered *)
  has_report : bool;  (** a report frame follows the status frame *)
}

let reply ?(kind = None) ?(message = None) ?(threads = 0) ?(quarantined = 0)
    ?(diagnostics = []) ?(has_report = false) status =
  { status; kind; message; threads; quarantined; diagnostics; has_report }

(* Only the head of the diagnostics list rides in the status frame: the
   full list can be huge and the report's coverage fields already account
   for everything dropped. *)
let max_inline_diags = 16

let reply_to_json r =
  let opt k = function None -> [] | Some v -> [ (k, Json.String v) ] in
  Json.to_compact_string
    (Json.Obj
       ([ ("status", Json.String (status_name r.status)) ]
       @ opt "kind" r.kind @ opt "message" r.message
       @ [
           ("threads", Json.Int r.threads);
           ("quarantined", Json.Int r.quarantined);
           ( "diagnostics",
             Json.List
               (List.filteri
                  (fun i _ -> i < max_inline_diags)
                  (List.map (fun d -> Json.String d) r.diagnostics)) );
           ("report", Json.Bool r.has_report);
         ]))

let reply_of_json s =
  match Json.parse s with
  | Error m -> Error (Printf.sprintf "unparseable status frame: %s" m)
  | Ok j -> (
      let str k = Option.bind (Json.member k j) Json.to_string_opt in
      let int k d =
        Option.value ~default:d (Option.bind (Json.member k j) Json.to_int_opt)
      in
      match Option.bind (str "status") status_of_name with
      | None -> Error "status frame lacks a known \"status\" field"
      | Some status ->
          Ok
            {
              status;
              kind = str "kind";
              message = str "message";
              threads = int "threads" 0;
              quarantined = int "quarantined" 0;
              diagnostics =
                (match Json.member "diagnostics" j with
                | Some (Json.List l) -> List.filter_map Json.to_string_opt l
                | _ -> []);
              has_report =
                (match Json.member "report" j with
                | Some (Json.Bool b) -> b
                | _ -> false);
            })
