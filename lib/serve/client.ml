(** Client side of the serve protocol: one blocking session per call. *)

module Tf_error = Threadfuser_util.Tf_error

type outcome = {
  reply : Protocol.reply;
  report : string option;  (** raw report JSON bytes, verbatim *)
}

let connect socket_path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket_path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let read_reply fd =
  match Protocol.reply_of_json (Protocol.read_frame fd) with
  | Ok r -> r
  | Error m -> Tf_error.fail Tf_error.Corrupt_input "serve reply: %s" m

(* Stream [bytes] in [chunk_bytes] slices.  A deliberate trickle keeps the
   daemon's chunking-invariance honest in smoke tests. *)
let send_chunked fd ~chunk_bytes bytes =
  let n = String.length bytes in
  let chunk = max 1 chunk_bytes in
  let off = ref 0 in
  while !off < n do
    let len = min chunk (n - !off) in
    Protocol.write_all fd (String.sub bytes !off len);
    off := !off + len
  done

let session ?(chunk_bytes = 65536) ~socket_path bytes =
  let fd = connect socket_path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let greeting = read_reply fd in
      match greeting.Protocol.status with
      | Protocol.Busy -> { reply = greeting; report = None }
      | Protocol.Ready ->
          (* a daemon that answers early (quota, injected fault) closes
             while we still send; its reply is in our receive buffer *)
          (try send_chunked fd ~chunk_bytes bytes
           with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
          (* half-close our side so a daemon waiting on more input sees a
             finished sender even if the stream lacks its end frame *)
          (try Unix.shutdown fd Unix.SHUTDOWN_SEND
           with Unix.Unix_error _ -> ());
          let reply = read_reply fd in
          let report =
            if reply.Protocol.has_report then Some (Protocol.read_frame fd)
            else None
          in
          { reply; report }
      | _ ->
          Tf_error.fail Tf_error.Corrupt_input
            "serve greeting was %S, expected ready or busy"
            (Protocol.status_name greeting.Protocol.status))

(* One STATS scrape against the daemon's admin socket.  The request is a
   single line; the reply is one frame — the JSON status document or the
   Prometheus text exposition, both already newline-terminated text. *)
let stats ?(format = Protocol.Stats_json) ~socket_path () =
  let fd = connect (Serve.admin_path_of socket_path) in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Protocol.write_all fd (Protocol.stats_request format);
      Protocol.read_frame fd)
