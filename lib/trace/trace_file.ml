(** Format sniffing over the written container and the legacy one. *)

module Obs = Threadfuser_obs.Obs

let c_decoded_threads =
  Obs.Counter.make "tf_trace_threads_decoded_total"
    ~help:"thread traces decoded from a trace file's bytes"
let c_decoded_bytes =
  Obs.Counter.make "tf_trace_bytes_decoded_total"
    ~help:"trace file bytes decoded"

let of_string data =
  Obs.span "decode"
    ~args:[ ("bytes", string_of_int (String.length data)) ]
    (fun () ->
      let traces =
        if String.starts_with ~prefix:Pack.magic data then Pack.decode data
        else Serial.of_string data
      in
      Obs.Counter.add c_decoded_threads (Array.length traces);
      Obs.Counter.add c_decoded_bytes (String.length data);
      traces)

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))
