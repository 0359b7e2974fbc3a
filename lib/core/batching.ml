(** Warp-formation (thread-batching) policies.

    The paper groups CPU threads into warps with a "configurable batching
    algorithm"; its evaluation uses in-order (sequential) batching, and
    §III notes that other policies can be explored.  Three are provided:

    - [Sequential]: threads [0..W-1] form warp 0, etc. (the default);
    - [Strided]: threads are dealt round-robin across warps, so warp [w]
      holds threads [w, w+n_warps, …];
    - [Signature_greedy]: threads are sorted by a hash of the prefix of
      their dynamic block trace, so threads that start on similar control
      paths share a warp — a software take on dynamic warp formation. *)

module Thread_trace = Threadfuser_trace.Thread_trace

type t = Sequential | Strided | Signature_greedy

let to_string = function
  | Sequential -> "sequential"
  | Strided -> "strided"
  | Signature_greedy -> "signature-greedy"

let all = [ Sequential; Strided; Signature_greedy ]

(* FNV-1a over the first [prefix] (func, block) pairs of the trace. *)
let signature ?(prefix = 64) (trace : Thread_trace.t) =
  let h = ref 0x2545f4914f6cdd1d in
  let mix v = h := (!h lxor v) * 0x100000001b3 in
  let remaining = ref prefix and i = ref 0 in
  while !remaining > 0 && !i < Thread_trace.length trace do
    (match trace.events.(!i) with
    | Thread_trace.Block ->
        mix ((trace.arg.(!i) * 8191) + trace.block.(!i));
        decr remaining
    | Thread_trace.Call | Thread_trace.Return | Thread_trace.Lock_acq
    | Thread_trace.Lock_rel | Thread_trace.Barrier | Thread_trace.Skip ->
        ());
    incr i
  done;
  !h land max_int

(** [form policy ~warp_size traces] partitions thread ids into warps.  The
    last warp may be partial. *)
let form policy ~warp_size (traces : Thread_trace.t array) : int array array =
  let n = Array.length traces in
  if n = 0 then [||]
  else begin
    let n_warps = (n + warp_size - 1) / warp_size in
    let order =
      match policy with
      | Sequential -> Array.init n (fun i -> i)
      | Strided ->
          (* tid for (warp w, lane l) is l*n_warps + w *)
          let order = Array.make n 0 in
          let pos = ref 0 in
          for w = 0 to n_warps - 1 do
            let lane = ref 0 in
            let tid = ref w in
            while !tid < n && !lane < warp_size do
              order.(!pos) <- !tid;
              incr pos;
              incr lane;
              tid := !tid + n_warps
            done
          done;
          Array.sub order 0 !pos
      | Signature_greedy ->
          let keyed = Array.init n (fun i -> (signature traces.(i), i)) in
          Array.sort compare keyed;
          Array.map snd keyed
    in
    let n_eff = Array.length order in
    let n_warps = (n_eff + warp_size - 1) / warp_size in
    Array.init n_warps (fun w ->
        let lo = w * warp_size in
        let hi = min n_eff (lo + warp_size) in
        Array.sub order lo (hi - lo))
  end
