(** Warp active masks: up to 62 lanes packed in an [int]. *)

type t = int

let max_lanes = 62

let empty : t = 0

let full warp_size : t =
  if warp_size <= 0 || warp_size > max_lanes then invalid_arg "Mask.full";
  (1 lsl warp_size) - 1

let singleton lane : t = 1 lsl lane

let mem mask lane = mask land (1 lsl lane) <> 0

let add mask lane = mask lor (1 lsl lane)

let remove mask lane = mask land lnot (1 lsl lane)

let union (a : t) (b : t) : t = a lor b

let inter (a : t) (b : t) : t = a land b

let is_empty (mask : t) = mask = 0

(* popcount by clearing the lowest set bit; masks have at most 62 bits *)
let count (mask : t) =
  let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
  go mask 0

let to_list (mask : t) =
  let rec go lane m acc =
    if m = 0 then List.rev acc
    else if m land 1 <> 0 then go (lane + 1) (m lsr 1) (lane :: acc)
    else go (lane + 1) (m lsr 1) acc
  in
  go 0 mask []

let of_list lanes = List.fold_left add empty lanes

let pp ~warp_size ppf mask =
  for lane = warp_size - 1 downto 0 do
    Fmt.char ppf (if mem mask lane then '1' else '0')
  done
