(** Per-function Dynamic Control Flow Graphs.

    The paper builds CFGs from the *observed* basic-block traces rather than
    from static code ("Dynamic CFG"): edges exist only if some thread
    actually took them.  The DCFG is built per function with a virtual exit
    node appended, so divergent threads are forced to reconverge at function
    end, mirroring real SIMT hardware (paper §III, "per-function DCFG").

    Node numbering: blocks keep their static indices [0, n_blocks); the
    virtual exit node is [n_blocks]. *)

module Program = Threadfuser_prog.Program
module Thread_trace = Threadfuser_trace.Thread_trace

type t = {
  func : int;
  n_blocks : int;
  exit_node : int; (* = n_blocks *)
  succs : int list array; (* length n_blocks + 1 *)
  preds : int list array;
  observed : bool array; (* blocks that appeared in some trace *)
}

let n_nodes t = t.n_blocks + 1

module Obs = Threadfuser_obs.Obs

let c_dcfg_edges =
  Obs.Counter.make "tf_dcfg_edges_total" ~help:"distinct observed DCFG edges"
let c_dcfg_funcs =
  Obs.Counter.make "tf_dcfg_functions_total" ~help:"per-function DCFGs built"

(** Builder accumulating edges from any number of thread traces. *)
module Builder = struct
  type dcfg = t

  type func_acc = {
    fid : int;
    nb : int;
    edges : (int, unit) Hashtbl.t; (* from * (nb+1) + to *)
    seen : bool array;
    known : int list array;
        (* per source node, the targets already in [edges]: memory linear
           in blocks + edges *)
  }

  type t = { prog : Program.t; funcs : (int, func_acc) Hashtbl.t }

  let create prog = { prog; funcs = Hashtbl.create 32 }

  let acc t fid =
    match Hashtbl.find_opt t.funcs fid with
    | Some a -> a
    | None ->
        let nb = Program.block_count (Program.func t.prog fid) in
        let a =
          {
            fid;
            nb;
            edges = Hashtbl.create 64;
            seen = Array.make (nb + 1) false;
            known = Array.make (nb + 1) [];
          }
        in
        Hashtbl.add t.funcs fid a;
        a

  (* Only an edge's first sighting reaches [edges], so the table sees the
     same insertions in the same order as one fed every sighting, and
     [finish_func] lists succs/preds in the same order.  A block has a
     handful of distinct successors, so the scan is short. *)
  let rec known (to_ : int) = function
    | [] -> false
    | t :: rest -> t = to_ || known to_ rest

  let add_edge a from_ to_ =
    if not (known to_ a.known.(from_)) then begin
      a.known.(from_) <- to_ :: a.known.(from_);
      Hashtbl.replace a.edges ((from_ * (a.nb + 1)) + to_) ()
    end

  (* Frame: the function being executed and the last block observed in it. *)
  type frame = { facc : func_acc; mutable last : int }

  let feed t (trace : Thread_trace.t) =
    let stack = ref [] in
    let enter fid =
      let a = acc t fid in
      stack := { facc = a; last = -1 } :: !stack
    in
    let leave () =
      match !stack with
      | [] -> ()
      | fr :: rest ->
          if fr.last >= 0 then begin
            add_edge fr.facc fr.last fr.facc.nb;
            fr.facc.seen.(fr.facc.nb) <- true
          end;
          stack := rest
    in
    for i = 0 to Thread_trace.length trace - 1 do
      match trace.events.(i) with
      | Thread_trace.Block ->
          let func = trace.ev.(3 * i) and block = trace.ev.((3 * i) + 1) in
          (match !stack with
          | fr :: _ when fr.facc.fid = func -> ()
          | _ -> enter func);
          let fr = List.hd !stack in
          fr.facc.seen.(block) <- true;
          if fr.last >= 0 then add_edge fr.facc fr.last block;
          fr.last <- block
      | Thread_trace.Call -> enter trace.ev.(3 * i)
      | Thread_trace.Return -> leave ()
      | Thread_trace.Lock_acq | Thread_trace.Lock_rel | Thread_trace.Barrier
      | Thread_trace.Skip ->
          ()
    done;
    (* A thread cut short (Halt) still reconverges at the virtual exit. *)
    while !stack <> [] do
      leave ()
    done

  let finish_func (a : func_acc) : dcfg =
    let n = a.nb + 1 in
    let succs = Array.make n [] and preds = Array.make n [] in
    Hashtbl.iter
      (fun key () ->
        let from_ = key / n and to_ = key mod n in
        succs.(from_) <- to_ :: succs.(from_);
        preds.(to_) <- from_ :: preds.(to_))
      a.edges;
    {
      func = a.fid;
      n_blocks = a.nb;
      exit_node = a.nb;
      succs;
      preds;
      observed = a.seen;
    }

  (** Finish into an array indexed by function id; functions never observed
      get an empty graph. *)
  let finish t : dcfg array =
    let dcfgs =
      Array.init (Program.func_count t.prog) (fun fid ->
          match Hashtbl.find_opt t.funcs fid with
          | Some a -> finish_func a
          | None ->
              let nb = Program.block_count (Program.func t.prog fid) in
              {
                func = fid;
                n_blocks = nb;
                exit_node = nb;
                succs = Array.make (nb + 1) [];
                preds = Array.make (nb + 1) [];
                observed = Array.make (nb + 1) false;
              })
    in
    if !Obs.enabled then begin
      Obs.Counter.add c_dcfg_funcs (Array.length dcfgs);
      Obs.Counter.add c_dcfg_edges
        (Array.fold_left
           (fun acc d ->
             Array.fold_left (fun acc succs -> acc + List.length succs) acc d.succs)
           0 dcfgs)
    end;
    dcfgs
end

(** Build the per-function DCFGs of a whole trace set in one pass. *)
let of_traces prog traces =
  let b = Builder.create prog in
  Array.iter (Builder.feed b) traces;
  Builder.finish b

let pp ppf t =
  Fmt.pf ppf "dcfg f%d (%d blocks + exit):@." t.func t.n_blocks;
  Array.iteri
    (fun from_ succs ->
      if succs <> [] then
        Fmt.pf ppf "  %d -> %a@." from_ Fmt.(list ~sep:comma int) succs)
    t.succs
