(** Warp-trace files — the on-disk form of ThreadFuser's simulator
    integration (paper §III generates trace files that feed Accel-Sim).

    A line-oriented text format, one micro-op per line:

    {v
      TFWARP1 <warp_size> <n_warps>
      W <warp_id> <n_ops>
      <mask-hex> <cls> <dst> <n-srcs> <srcs...> -
      <mask-hex> <cls> <dst> <n-srcs> <srcs...> M <L|S> <size> <G|P> <addrs...>
    v}

    Memory micro-ops list one address per lane ([-] for inactive lanes);
    [G]/[P] select the global/local (private) space.  The format
    round-trips exactly ([of_string (to_string t) = t]). *)

open Threadfuser_isa
module Thread_trace = Threadfuser_trace.Thread_trace

exception Corrupt of string

let magic = "TFWARP1"

let cls_to_string = Opclass.to_string

let cls_of_string = function
  | "ialu" -> Opclass.Ialu
  | "imul" -> Opclass.Imul
  | "idiv" -> Opclass.Idiv
  | "falu" -> Opclass.Falu
  | "fmul" -> Opclass.Fmul
  | "fdiv" -> Opclass.Fdiv
  | "load" -> Opclass.Load
  | "store" -> Opclass.Store
  | "branch" -> Opclass.Branch
  | "callret" -> Opclass.Callret
  | "sync" -> Opclass.Sync
  | s -> raise (Corrupt ("unknown op class " ^ s))

(* Direct decimal/hex emitters: serialization is a hot stage for large
   warp traces, and one [Printf.sprintf] per field used to dominate its
   profile (a fresh format interpretation + string per number).  These
   write digits straight into the buffer. *)
let rec add_udec buf n =
  if n >= 10 then add_udec buf (n / 10);
  Buffer.add_char buf (Char.chr (Char.code '0' + (n mod 10)))

let add_dec buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_udec buf (-n)
  end
  else add_udec buf n

let hex_digits = "0123456789abcdef"

let rec add_hex buf n =
  if n >= 16 then add_hex buf (n lsr 4);
  Buffer.add_char buf hex_digits.[n land 15]

(* Micro-op [i] of warp [w], straight from the flat columns. *)
let emit_op buf (t : Warp_trace.t) (w : Warp_trace.warp) i =
  let tp = t.Warp_trace.templates.(w.Warp_trace.op_tpl.(i)) in
  (* a mask is already the bit pattern the format wants *)
  add_hex buf (w.Warp_trace.op_mask.(i) :> int);
  Buffer.add_char buf ' ';
  Buffer.add_string buf (cls_to_string tp.Warp_trace.t_cls);
  Buffer.add_char buf ' ';
  add_dec buf tp.Warp_trace.t_dst;
  Buffer.add_char buf ' ';
  add_udec buf (Array.length tp.Warp_trace.t_srcs);
  Array.iter
    (fun s ->
      Buffer.add_char buf ' ';
      add_dec buf s)
    tp.Warp_trace.t_srcs;
  let o = w.Warp_trace.op_mem.(i) and m = w.Warp_trace.mem_recs in
  if o < 0 then Buffer.add_string buf " -"
  else begin
    Buffer.add_string buf (if m.(o) <> 0 then " M S " else " M L ");
    add_udec buf m.(o + 1);
    Buffer.add_string buf
      (if m.(o + 2) = Warp_trace.space_code Warp_trace.Global then " G" else " P");
    for lane = 0 to t.Warp_trace.warp_size - 1 do
      let a = m.(o + 3 + lane) in
      if a < 0 then Buffer.add_string buf " -"
      else begin
        Buffer.add_char buf ' ';
        add_hex buf a
      end
    done
  end;
  Buffer.add_char buf '\n'

let to_buffer (t : Warp_trace.t) =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf
    (Printf.sprintf "%s %d %d\n" magic t.Warp_trace.warp_size
       (Array.length t.Warp_trace.warps));
  Array.iter
    (fun (w : Warp_trace.warp) ->
      Buffer.add_string buf
        (Printf.sprintf "W %d %d\n" w.Warp_trace.warp_id (Warp_trace.n_ops w));
      for i = 0 to Warp_trace.n_ops w - 1 do
        emit_op buf t w i
      done)
    t.Warp_trace.warps;
  buf

let to_string t = Buffer.contents (to_buffer t)

(* ---- parsing ----------------------------------------------------------- *)

let fail fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* Every numeric token is untrusted: a flipped byte must fail as [Corrupt],
   not as the [Failure] of [int_of_string]. *)
let int_tok what s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail "bad %s %S" what s

let hex_tok what s =
  match int_of_string_opt ("0x" ^ s) with
  | Some v -> v
  | None -> fail "bad %s %S" what s

(* A register id the scoreboard can index: -1 (none) or a register. *)
let reg_tok what s =
  let r = int_tok what s in
  if r < -1 || r >= Warp_trace.reg_file_size then
    fail "%s register %d outside [-1, %d)" what r Warp_trace.reg_file_size;
  r

let parse_entry warp_size line : Warp_trace.entry =
  let toks = String.split_on_char ' ' line in
  match toks with
  | mask_s :: cls_s :: dst_s :: nsrc_s :: rest -> (
      let mask_bits = hex_tok "mask" mask_s in
      let mask =
        Mask.of_list
          (List.filter (fun l -> mask_bits land (1 lsl l) <> 0)
             (List.init Mask.max_lanes (fun i -> i)))
      in
      let n_srcs = int_tok "src count" nsrc_s in
      if n_srcs < 0 || n_srcs > List.length rest then
        fail "src count %d exceeds the line's tokens" n_srcs;
      let rec take n acc = function
        | rest when n = 0 -> (List.rev acc, rest)
        | [] -> fail "truncated srcs"
        | x :: tl -> take (n - 1) (x :: acc) tl
      in
      let srcs, rest = take n_srcs [] rest in
      let srcs = Array.of_list (List.map (reg_tok "src") srcs) in
      let dst = reg_tok "dst" dst_s in
      let cls = cls_of_string cls_s in
      match rest with
      | [ "-" ] -> { Warp_trace.mask; op = { Warp_trace.cls; dst; srcs; mem = None } }
      | "M" :: ls :: size_s :: space_s :: addr_toks ->
          if List.length addr_toks <> warp_size then
            fail "expected %d lane addresses, got %d" warp_size
              (List.length addr_toks);
          let addrs =
            Array.of_list
              (List.map
                 (fun t -> if t = "-" then -1 else hex_tok "lane address" t)
                 addr_toks)
          in
          let mem =
            {
              Warp_trace.is_store =
                (match ls with
                | "S" -> true
                | "L" -> false
                | _ -> fail "bad L/S flag %s" ls);
              size =
                (let size = int_tok "size" size_s in
                 if size > Thread_trace.max_access_size then
                   fail "access size %d exceeds %d" size Thread_trace.max_access_size;
                 size);
              space =
                (match space_s with
                | "G" -> Warp_trace.Global
                | "P" -> Warp_trace.Local
                | _ -> fail "bad space %s" space_s);
              addrs;
            }
          in
          { Warp_trace.mask; op = { Warp_trace.cls; dst; srcs; mem = Some mem } }
      | _ -> fail "malformed op line: %s" line)
  | _ -> fail "malformed op line: %s" line

let of_string s : Warp_trace.t =
  let lines = String.split_on_char '\n' s in
  match lines with
  | header :: rest -> (
      match String.split_on_char ' ' header with
      | [ m; ws; nw ] when m = magic ->
          let warp_size = int_tok "warp size" ws
          and n_warps = int_tok "warp count" nw in
          if warp_size < 1 || warp_size > Mask.max_lanes then
            fail "warp size %d outside [1, %d]" warp_size Mask.max_lanes;
          (* counts are untrusted: bound them by the lines actually present
             before allocating (a corrupt header must not trigger a
             multi-GB [Array.init]) *)
          let remaining = ref (List.length rest) in
          if n_warps < 0 || n_warps > !remaining then
            fail "warp count %d exceeds the file's %d lines" n_warps !remaining;
          let cursor = ref rest in
          let next_line () =
            match !cursor with
            | [] -> fail "unexpected end of file"
            | l :: tl ->
                cursor := tl;
                decr remaining;
                l
          in
          let warps =
            Array.init n_warps (fun _ ->
                match String.split_on_char ' ' (next_line ()) with
                | [ "W"; id_s; n_s ] ->
                    let warp_id = int_tok "warp id" id_s in
                    let n_ops = int_tok "op count" n_s in
                    if n_ops < 0 || n_ops > !remaining then
                      fail "op count %d exceeds the file's remaining %d lines"
                        n_ops !remaining;
                    (warp_id, Array.init n_ops (fun _ -> parse_entry warp_size (next_line ())))
                | _ -> fail "expected warp header")
          in
          Warp_trace.of_entries ~warp_size warps
      | _ -> fail "bad magic")
  | [] -> fail "empty file"

module Log = Threadfuser_obs.Log

let to_file path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc (to_buffer t));
  Log.debug "warp trace written"
    ~fields:
      [
        ("path", path);
        ("warps", string_of_int (Array.length t.Warp_trace.warps));
        ("ops", string_of_int (Warp_trace.total_ops t));
      ]

let of_file path =
  let ic = open_in path in
  let t =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> of_string (really_input_string ic (in_channel_length ic)))
  in
  Log.debug "warp trace loaded"
    ~fields:
      [ ("path", path); ("warps", string_of_int (Array.length t.Warp_trace.warps)) ];
  t
