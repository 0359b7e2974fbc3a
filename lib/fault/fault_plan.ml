(** Ordered-arm fault plans: one percentage check and one draw loop for
    every seeded injector, so decisions stay a pure function of the
    stream and the arm order. *)

module Lcg = Threadfuser_util.Lcg

type 'a t = (int * (Lcg.t -> 'a)) list

let make ~who arms =
  if List.exists (fun (pct, _) -> pct < 0 || pct > 100) arms then
    invalid_arg (who ^ ": percentages must be in 0..100");
  arms

let active arms = List.exists (fun (pct, _) -> pct > 0) arms

let draw arms ~stream ~none =
  let g = Lcg.create stream in
  let rec go = function
    | [] -> none
    | (pct, fire) :: rest -> if Lcg.chance g pct 100 then fire g else go rest
  in
  go arms
