(** Format sniffing over the two trace containers. *)

let of_string data =
  if String.starts_with ~prefix:Pack.magic data then Pack.decode data
  else Serial.of_string data

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))
