(** Warp-level RISC instruction traces — ThreadFuser's Accel-Sim
    integration format (paper §III, "Generating warp-based instruction
    traces").

    Each element is one micro-op executed by a warp under an active mask.
    CISC instructions have already been cracked ({!Crack}); memory micro-ops
    carry one address per lane (or [-1] for inactive lanes) with stack
    accesses routed to the [Local] space and heap/global accesses to
    [Global], as the paper does when mapping x86 onto the simulator's
    virtual ISA.

    The trace is stored flat: shared templates for the static part of each
    micro-op, per-warp int columns for the dynamic part (see the .mli);
    the boxed {!entry} is only a view. *)

module Opclass = Threadfuser_isa.Opclass
module Layout = Threadfuser_machine.Layout

type space = Local | Global

(* Register ids for dependence tracking: 0..15 architectural, 16 = flags,
   17 = the cracking temporary, -1 = none. *)
let flags_reg = 16

let temp_reg = 17

let reg_file_size = 18

type mem_op = {
  is_store : bool;
  size : int;
  space : space;
  addrs : int array; (* length = warp size; -1 for inactive lanes *)
}

type mop = {
  cls : Opclass.t;
  dst : int; (* destination register, -1 if none *)
  srcs : int array;
  mem : mem_op option;
}

type entry = { mask : Mask.t; op : mop }

type template = { t_cls : Opclass.t; t_dst : int; t_srcs : int array }

type warp = {
  warp_id : int;
  op_tpl : int array;
  op_mask : Mask.t array;
  op_mem : int array;
  mem_recs : int array;
}

type t = { warp_size : int; templates : template array; warps : warp array }

(* A memory record: [store flag; size; space; lane addresses...]. *)
let mem_stride ~warp_size = 3 + warp_size

let space_code = function Global -> 0 | Local -> 1

let space_of_addr a = if Layout.segment_of a = Layout.Stack then Local else Global

let n_ops w = Array.length w.op_tpl

let total_ops t = Array.fold_left (fun acc w -> acc + n_ops w) 0 t.warps

let get t ~warp i =
  let w = t.warps.(warp) in
  let tp = t.templates.(w.op_tpl.(i)) in
  let mem =
    let o = w.op_mem.(i) in
    if o < 0 then None
    else
      Some
        {
          is_store = w.mem_recs.(o) <> 0;
          size = w.mem_recs.(o + 1);
          space = (if w.mem_recs.(o + 2) = space_code Global then Global else Local);
          addrs = Array.sub w.mem_recs (o + 3) t.warp_size;
        }
  in
  {
    mask = w.op_mask.(i);
    op = { cls = tp.t_cls; dst = tp.t_dst; srcs = tp.t_srcs; mem };
  }

let to_entries t =
  Array.mapi
    (fun k w -> (w.warp_id, Array.init (n_ops w) (fun i -> get t ~warp:k i)))
    t.warps

(* Canonical template numbering: distinct templates in first-use order.
   [number tp] returns the canonical index of [tp], adding it if new. *)
let numbering () =
  let index = Hashtbl.create 64 and order = ref [] and n = ref 0 in
  let number tp =
    match Hashtbl.find_opt index tp with
    | Some k -> k
    | None ->
        let k = !n in
        Hashtbl.add index tp k;
        order := tp :: !order;
        incr n;
        k
  in
  (number, fun () -> Array.of_list (List.rev !order))

let of_entries ~warp_size warps =
  let number, templates = numbering () in
  let stride = mem_stride ~warp_size in
  let warps =
    Array.map
      (fun (warp_id, (ops : entry array)) ->
        let n_mem =
          Array.fold_left (fun a e -> if e.op.mem = None then a else a + 1) 0 ops
        in
        let mem = Array.make (n_mem * stride) 0 and next = ref 0 in
        let op_mem =
          Array.map
            (fun e ->
              match e.op.mem with
              | None -> -1
              | Some m ->
                  if Array.length m.addrs <> warp_size then
                    invalid_arg "Warp_trace.of_entries: lane count";
                  let o = !next in
                  mem.(o) <- Bool.to_int m.is_store;
                  mem.(o + 1) <- m.size;
                  mem.(o + 2) <- space_code m.space;
                  Array.blit m.addrs 0 mem (o + 3) warp_size;
                  next := o + stride;
                  o)
            ops
        in
        let op_tpl =
          Array.map
            (fun e ->
              number { t_cls = e.op.cls; t_dst = e.op.dst; t_srcs = e.op.srcs })
            ops
        in
        {
          warp_id;
          op_tpl;
          op_mask = Array.map (fun e -> e.mask) ops;
          op_mem;
          mem_recs = mem;
        })
      warps
  in
  { warp_size; templates = templates (); warps }

type sites = {
  slots : template array;
  site_off : int array;
  slot_src : int array;
  slot_size : int array;
}

module Builder = struct
  type warp_trace = t

  (* Every warp's sealed columns; disjoint slots are written from
     different domains. *)
  type t = { warp_size : int; sites : sites; warps : warp array }

  let create ~warp_size ~n_warps sites =
    {
      warp_size;
      sites;
      warps =
        Array.init n_warps (fun warp_id ->
            { warp_id; op_tpl = [||]; op_mask = [||]; op_mem = [||]; mem_recs = [||] });
    }

  (* Scratch columns for the warp being emitted: [n] ops and [mem_n]
     record ints used. *)
  type emitter = {
    b : t;
    mutable warp : int;
    mutable n : int;
    mutable tpl : int array;
    mutable mask : Mask.t array;
    mutable off : int array;
    mutable mem : int array;
    mutable mem_n : int;
  }

  let emitter b =
    { b; warp = 0; n = 0; tpl = [||]; mask = [||]; off = [||]; mem = [||]; mem_n = 0 }

  let start e ~warp =
    e.warp <- warp;
    e.n <- 0;
    e.mem_n <- 0

  (* [a] with room for [need] entries, its first [used] kept. *)
  let grow a ~used ~need fill =
    let b = Array.make (max 64 (max need (2 * Array.length a))) fill in
    Array.blit a 0 b 0 used;
    b

  let push e ~tpl mask ~off =
    let n = e.n in
    if n = Array.length e.tpl then begin
      e.tpl <- grow e.tpl ~used:n ~need:(n + 1) 0;
      e.mask <- grow e.mask ~used:n ~need:(n + 1) Mask.empty;
      e.off <- grow e.off ~used:n ~need:(n + 1) 0
    end;
    e.tpl.(n) <- tpl;
    e.mask.(n) <- mask;
    e.off.(n) <- off;
    e.n <- n + 1

  (* Append one memory record filled from [lanes]/[addrs][0..count); its
     space is the segment of the first lane with an address. *)
  let push_mem e ~is_store ~size count lanes addrs =
    let ws = e.b.warp_size in
    let stride = mem_stride ~warp_size:ws in
    let o = e.mem_n in
    if o + stride > Array.length e.mem then
      e.mem <- grow e.mem ~used:o ~need:(o + stride) 0;
    let m = e.mem in
    Array.fill m (o + 3) ws (-1);
    for i = 0 to count - 1 do
      let slot = o + 3 + lanes.(i) in
      if m.(slot) < 0 then m.(slot) <- addrs.(i)
    done;
    let lane = ref 0 in
    while !lane < ws && m.(o + 3 + !lane) < 0 do
      incr lane
    done;
    m.(o) <- Bool.to_int is_store;
    m.(o + 1) <- size;
    m.(o + 2) <-
      space_code (if !lane < ws then space_of_addr m.(o + 3 + !lane) else Global);
    e.mem_n <- o + stride;
    o

  let emit e ~site mask ~n_ld ld_lane ld_addr ~n_st st_lane st_addr =
    let s = e.b.sites in
    let first = s.site_off.(site) and last = s.site_off.(site + 1) - 1 in
    for k = first to last do
      let src = s.slot_src.(k) in
      if (src = 1 && n_ld = 0) || (src = 2 && n_st = 0) then
        invalid_arg
          (Printf.sprintf "Warp_trace.emit: site %d has a memory micro-op but no %s lanes"
             site (if src = 1 then "load" else "store"))
    done;
    for k = first to last do
      let off =
        match s.slot_src.(k) with
        | 0 -> -1
        | 1 -> push_mem e ~is_store:false ~size:s.slot_size.(k) n_ld ld_lane ld_addr
        | _ -> push_mem e ~is_store:true ~size:s.slot_size.(k) n_st st_lane st_addr
      in
      push e ~tpl:k mask ~off
    done

  let seal e =
    e.b.warps.(e.warp) <-
      {
        warp_id = e.warp;
        op_tpl = Array.sub e.tpl 0 e.n;
        op_mask = Array.sub e.mask 0 e.n;
        op_mem = Array.sub e.off 0 e.n;
        mem_recs = Array.sub e.mem 0 e.mem_n;
      }

  (* Renumber the templates canonically (the crack table holds one slot
     per static micro-op, used or not), in place. *)
  let finish t : warp_trace =
    let number, templates = numbering () in
    let canon = Array.make (Array.length t.sites.slots) (-1) in
    Array.iter
      (fun w ->
        let tpl = w.op_tpl in
        for i = 0 to Array.length tpl - 1 do
          let k = tpl.(i) in
          if canon.(k) < 0 then canon.(k) <- number t.sites.slots.(k);
          tpl.(i) <- canon.(k)
        done)
      t.warps;
    { warp_size = t.warp_size; templates = templates (); warps = t.warps }
end
