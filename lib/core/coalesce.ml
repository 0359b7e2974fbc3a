(** Memory-coalescing model (paper §III, Fig. 4).

    Accesses from the active lanes of one warp-level memory instruction are
    merged into the minimal set of 32-byte transactions, exactly as GPU
    load/store units do.  Transactions are counted separately per address
    segment (stack / heap / global) so the analyzer can reproduce the
    paper's heap-vs-stack divergence breakdown (Fig. 10). *)

module Layout = Threadfuser_machine.Layout
module Program = Threadfuser_prog.Program

let transaction_bytes = 32

(** Distinct 32 B lines covered by [(addr, size)] accesses. *)
let count_transactions (accesses : (int * int) list) =
  let lines = Hashtbl.create 8 in
  List.iter
    (fun (addr, size) ->
      let first = addr / transaction_bytes
      and last = (addr + max 1 size - 1) / transaction_bytes in
      for line = first to last do
        Hashtbl.replace lines line ()
      done)
    accesses;
  Hashtbl.length lines

type seg_counters = {
  mutable ld_txns : int;
  mutable st_txns : int;
  mutable ld_issues : int; (* warp-level load instructions touching the segment *)
  mutable st_issues : int;
  mutable ld_lanes : int; (* per-lane accesses *)
  mutable st_lanes : int;
}

let seg_counters () =
  { ld_txns = 0; st_txns = 0; ld_issues = 0; st_issues = 0; ld_lanes = 0; st_lanes = 0 }

(* Per-access-site attribution (docs/observability.md): every warp-level
   memory instruction is keyed by its originating instruction site
   [(fid, block, ioff)] and charged the transactions it generated beyond
   the perfectly-coalesced minimum, split by address segment.  The blame
   report ranks sites by that excess. *)
type site_counters = {
  mutable a_issues : int; (* warp-level load/store instructions at the site *)
  mutable a_txns : int; (* 32 B transactions generated *)
  mutable a_min_txns : int; (* perfectly-coalesced minimum *)
  mutable a_stack_excess : int; (* excess transactions per segment *)
  mutable a_heap_excess : int;
  mutable a_global_excess : int;
}

let site_counters () =
  {
    a_issues = 0;
    a_txns = 0;
    a_min_txns = 0;
    a_stack_excess = 0;
    a_heap_excess = 0;
    a_global_excess = 0;
  }

(* Staging for the instruction {!record_lanes} is recording.  Its
   distinct 32 B lines are an open-addressed set with linear probing:
   slot [i] is the pair [slots.(2i)] (its stamp) and [slots.(2i + 1)]
   (its key), occupied iff its stamp is [gen], so bumping [gen] empties
   the set without touching it.  A key is a line id with its segment
   index in the low two bits, so one set serves all three segments, and
   a line that accesses of two segments both touch counts once in each,
   as when every segment kept its own set.  The set doubles when half
   full.  [sums] holds, per segment (stack, heap, global), the
   instruction's lanes, bytes and distinct lines. *)
type scratch = {
  mutable slots : int array;
  mutable bits : int; (* log2 of the slot count *)
  mutable gen : int;
  mutable count : int; (* keys stamped [gen] *)
  sums : int array;
}

type t = {
  stack : seg_counters;
  heap : seg_counters;
  global : seg_counters;
  block_site : int array array;
      (* per function, per block: index of the block's first instruction
         site (instruction [ioff] is site [block_site.(fid).(block) + ioff]);
         entry [n_blocks] is the function's end *)
  sites : site_counters array; (* one per static instruction *)
  scratch : scratch; (* this model's own, so shards never share one *)
}

let initial_bits = 8 (* 256 slots: a 32-lane warp rarely needs 64 *)

(* The site table is dense: a program has few static instructions (2,960
   over all 36 registry workloads), so every site gets its counters up
   front and the hot path indexes an array instead of hashing a key. *)
let create prog =
  let n = ref 0 in
  let block_site =
    Array.init (Program.func_count prog) (fun fid ->
        let blocks = (Program.func prog fid).Program.blocks in
        let base = Array.make (Array.length blocks + 1) 0 in
        Array.iteri
          (fun b (blk : Program.block) ->
            base.(b) <- !n;
            n := !n + Array.length blk.Program.instrs)
          blocks;
        base.(Array.length blocks) <- !n;
        base)
  in
  {
    stack = seg_counters ();
    heap = seg_counters ();
    global = seg_counters ();
    block_site;
    sites = Array.init !n (fun _ -> site_counters ());
    scratch =
      {
        slots = Array.make (2 lsl initial_bits) 0;
        bits = initial_bits;
        gen = 0;
        count = 0;
        sums = Array.make 9 0;
      };
  }

(* Every site in (fid, block, ioff) order. *)
let iter_sites t f =
  Array.iteri
    (fun fid base ->
      for block = 0 to Array.length base - 2 do
        for i = base.(block) to base.(block + 1) - 1 do
          f ~fid ~block ~ioff:(i - base.(block)) t.sites.(i)
        done
      done)
    t.block_site

(** Perfectly-coalesced floor for an access set: the 32 B lines needed if
    the same bytes were laid out contiguously. *)
let min_transactions (accesses : (int * int) list) =
  let bytes = List.fold_left (fun acc (_, size) -> acc + max 1 size) 0 accesses in
  max 1 ((bytes + transaction_bytes - 1) / transaction_bytes)

let seg t (segment : Layout.segment) =
  match segment with
  | Layout.Stack -> t.stack
  | Layout.Heap -> t.heap
  | Layout.Global -> t.global

let segment_of_index = function
  | 0 -> Layout.Stack
  | 1 -> Layout.Heap
  | _ -> Layout.Global

(* Fibonacci hashing: the top [bits] bits of the key times an odd
   constant, so runs of consecutive line ids spread over the table. *)
let[@inline] slot_of key bits = (key * 0x2545f4914f6cdd1d) lsr (63 - bits)

(* Double the table, re-inserting the keys stamped [gen]. *)
let grow ls =
  let old = ls.slots and gen = ls.gen in
  let bits = ls.bits + 1 in
  let slots = Array.make (2 lsl bits) 0 in
  let mask = (1 lsl bits) - 1 in
  for i = 0 to (Array.length old / 2) - 1 do
    if old.(2 * i) = gen then begin
      let key = old.((2 * i) + 1) in
      let j = ref (slot_of key bits) in
      while slots.(2 * !j) = gen do
        j := (!j + 1) land mask
      done;
      slots.(2 * !j) <- gen;
      slots.((2 * !j) + 1) <- key
    end
  done;
  ls.slots <- slots;
  ls.bits <- bits

(* The per-segment accounting of one recorded instruction: [lanes]
   accesses of [bytes] bytes covering [txns] distinct lines. *)
let account t ~is_store ~site ~si ~lanes ~bytes ~txns =
  let c = t.sites.(site) in
  let segment = segment_of_index si in
  (* [max] is polymorphic, a C call per use: compare ints directly *)
  let min_txns = (bytes + transaction_bytes - 1) / transaction_bytes in
  let min_txns = if min_txns < 1 then 1 else min_txns in
  let excess = if txns > min_txns then txns - min_txns else 0 in
  c.a_txns <- c.a_txns + txns;
  c.a_min_txns <- c.a_min_txns + min_txns;
  (match segment with
  | Layout.Stack -> c.a_stack_excess <- c.a_stack_excess + excess
  | Layout.Heap -> c.a_heap_excess <- c.a_heap_excess + excess
  | Layout.Global -> c.a_global_excess <- c.a_global_excess + excess);
  let c = seg t segment in
  if is_store then begin
    c.st_txns <- c.st_txns + txns;
    c.st_issues <- c.st_issues + 1;
    c.st_lanes <- c.st_lanes + lanes
  end
  else begin
    c.ld_txns <- c.ld_txns + txns;
    c.ld_issues <- c.ld_issues + 1;
    c.ld_lanes <- c.ld_lanes + lanes
  end

(** Record one warp-level memory instruction from parallel arrays:
    [addrs]/[sizes][0..n-1] are the active lanes' accesses.  The
    allocation-free hot-path twin of {!record}: identical accounting
    (segment split, site attribution), returns the total transaction
    count.  One pass classifies each access's segment, sums
    its lanes and bytes, and counts its lines that are new to the set. *)
let record_lanes t ~is_store ~site ~n (addrs : int array) (sizes : int array) =
  let ls = t.scratch in
  let sums = ls.sums and gen = ls.gen + 1 in
  ls.gen <- gen;
  ls.count <- 0;
  for k = 0 to 8 do
    sums.(k) <- 0
  done;
  let stack_base = Layout.stack_region_base and heap_base = Layout.heap_base in
  (* the key inserted last: coalesced lanes repeat it *)
  let last = ref min_int in
  for i = 0 to n - 1 do
    let addr = addrs.(i) and size = sizes.(i) in
    let size = if size < 1 then 1 else size in
    let si = if addr >= stack_base then 0 else if addr >= heap_base then 1 else 2 in
    let fresh = ref 0 in
    for line = addr / transaction_bytes to (addr + size - 1) / transaction_bytes do
      let key = (line lsl 2) lor si in
      if key <> !last then begin
        last := key;
        (* the set's insert, here so the loop keeps its registers *)
        let slots = ls.slots and bits = ls.bits in
        let mask = (1 lsl bits) - 1 in
        let j = ref (slot_of key bits) in
        while slots.(2 * !j) = gen && slots.((2 * !j) + 1) <> key do
          j := (!j + 1) land mask
        done;
        if slots.(2 * !j) <> gen then begin
          slots.(2 * !j) <- gen;
          slots.((2 * !j) + 1) <- key;
          incr fresh;
          ls.count <- ls.count + 1;
          if 2 * ls.count > 1 lsl bits then grow ls
        end
      end
    done;
    let k = 3 * si in
    sums.(k) <- sums.(k) + 1;
    sums.(k + 1) <- sums.(k + 1) + size;
    sums.(k + 2) <- sums.(k + 2) + !fresh
  done;
  let c = t.sites.(site) in
  c.a_issues <- c.a_issues + 1;
  let total = ref 0 in
  for si = 0 to 2 do
    let lanes = sums.(3 * si) in
    if lanes > 0 then begin
      let txns = sums.((3 * si) + 2) in
      account t ~is_store ~site ~si ~lanes ~bytes:sums.((3 * si) + 1) ~txns;
      total := !total + txns
    end
  done;
  !total

(** Record one warp-level memory instruction: [lanes] is the (addr, size)
    list over active lanes.  Convenience wrapper over {!record_lanes} for
    tests and cold call sites. *)
let record t ~is_store ~site (lanes : (int * int) list) =
  let n = List.length lanes in
  let addrs = Array.make (max n 1) 0 and sizes = Array.make (max n 1) 0 in
  List.iteri
    (fun i (a, s) ->
      addrs.(i) <- a;
      sizes.(i) <- s)
    lanes;
  record_lanes t ~is_store ~site ~n addrs sizes

(** Fold [src]'s counters into [dst] — the shard reduction of the
    domain-parallel replay (see Par_replay): every field is a sum, so the
    merged totals equal a sequential run's. *)
let merge_into ~dst src =
  let merge_seg (d : seg_counters) (s : seg_counters) =
    d.ld_txns <- d.ld_txns + s.ld_txns;
    d.st_txns <- d.st_txns + s.st_txns;
    d.ld_issues <- d.ld_issues + s.ld_issues;
    d.st_issues <- d.st_issues + s.st_issues;
    d.ld_lanes <- d.ld_lanes + s.ld_lanes;
    d.st_lanes <- d.st_lanes + s.st_lanes
  in
  merge_seg dst.stack src.stack;
  merge_seg dst.heap src.heap;
  merge_seg dst.global src.global;
  Array.iteri
    (fun i (c : site_counters) ->
      let d = dst.sites.(i) in
      d.a_issues <- d.a_issues + c.a_issues;
      d.a_txns <- d.a_txns + c.a_txns;
      d.a_min_txns <- d.a_min_txns + c.a_min_txns;
      d.a_stack_excess <- d.a_stack_excess + c.a_stack_excess;
      d.a_heap_excess <- d.a_heap_excess + c.a_heap_excess;
      d.a_global_excess <- d.a_global_excess + c.a_global_excess)
    src.sites

let totals t =
  let f c = (c.ld_txns + c.st_txns, c.ld_issues + c.st_issues) in
  let a, b = f t.stack and c, d = f t.heap and e, g = f t.global in
  (a + c + e, b + d + g)

(** Mean 32 B transactions per warp-level load/store in a segment. *)
let txns_per_instr c =
  let issues = c.ld_issues + c.st_issues in
  if issues = 0 then 0.0
  else float_of_int (c.ld_txns + c.st_txns) /. float_of_int issues
