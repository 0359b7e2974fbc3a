(** Set-associative LRU cache model shared by the GPU and CPU timing
    simulators.  Tracks tags only (no data); [access] reports hit/miss and
    allocates on miss. *)

type config = { size_bytes : int; assoc : int; line_bytes : int }

type t = {
  config : config;
  n_sets : int;
  tags : int array; (* set * assoc + way; -1 = invalid *)
  stamps : int array; (* LRU timestamps *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  line_shift : int; (* log2 line_bytes, or -1: no shift/mask fast path *)
  set_shift : int; (* log2 n_sets *)
}

(* [Some k] when [n = 2^k]. *)
let log2_exact n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  if n > 0 && n land (n - 1) = 0 then Some (go 0) else None

let create config =
  let lines = config.size_bytes / config.line_bytes in
  if lines <= 0 || lines mod config.assoc <> 0 then
    invalid_arg "Cache.create: size/assoc/line mismatch";
  let n_sets = lines / config.assoc in
  let line_shift, set_shift =
    match (log2_exact config.line_bytes, log2_exact n_sets) with
    | Some l, Some s -> (l, s)
    | _ -> (-1, 0)
  in
  {
    config;
    n_sets;
    tags = Array.make lines (-1);
    stamps = Array.make lines 0;
    clock = 0;
    hits = 0;
    misses = 0;
    line_shift;
    set_shift;
  }

(** [access t addr] — true on hit.  Misses allocate (LRU victim).  With
    power-of-two line and set counts and [addr >= 0] the set and tag are
    a shift and a mask; otherwise they are [/] and [mod], which also
    define the result for negative addresses. *)
let access t addr =
  t.clock <- t.clock + 1;
  let fast = t.line_shift >= 0 && addr >= 0 in
  let set =
    if fast then (addr lsr t.line_shift) land (t.n_sets - 1)
    else addr / t.config.line_bytes mod t.n_sets
  in
  let tag =
    if fast then addr lsr (t.line_shift + t.set_shift)
    else addr / t.config.line_bytes / t.n_sets
  in
  let assoc = t.config.assoc in
  let base = set * assoc in
  let way = ref 0 in
  while !way < assoc && t.tags.(base + !way) <> tag do
    incr way
  done;
  if !way < assoc then begin
    t.stamps.(base + !way) <- t.clock;
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    (* evict the LRU way *)
    let victim = ref base in
    for way = 1 to assoc - 1 do
      if t.stamps.(base + way) < t.stamps.(!victim) then victim := base + way
    done;
    t.tags.(!victim) <- tag;
    t.stamps.(!victim) <- t.clock;
    false
  end

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total
