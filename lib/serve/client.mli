(** Client side of the serve protocol ({!Protocol}): connect, stream a
    trace, collect the typed reply and the raw report bytes. *)

type outcome = {
  reply : Protocol.reply;
  report : string option;
      (** raw report JSON, byte-identical to batch [analyze --json] *)
}

(** [session ?chunk_bytes ~socket_path bytes] runs one blocking session:
    connect, read the greeting, stream [bytes] (a TFPACK1 file) in
    [chunk_bytes] slices (default 64KiB), read the reply.  A [busy]
    greeting returns immediately with no report; an early reply still
    returns when the send is cut.  Raises [Unix.Unix_error] or
    [End_of_file] on connection failure, [Tf_error.Error] on a bad reply. *)
val session : ?chunk_bytes:int -> socket_path:string -> string -> outcome

(** [stats ?format ~socket_path ()] scrapes the daemon's admin socket
    (derived via {!Serve.admin_path_of} from the {e session} socket path)
    and returns the reply payload: the JSON status document
    ([tfserve-stats/1], the default) or the Prometheus text exposition
    ({!Protocol.Stats_prom}).  Raises [Unix.Unix_error] on connection
    failure. *)
val stats :
  ?format:Protocol.stats_format -> socket_path:string -> unit -> string
