(** Per-unit access logs and their deterministic [(cycle, unit)] merge;
    see the .mli. *)

type t = { mutable ts : int array; mutable v : int array; mutable n : int }

let create () = { ts = [||]; v = [||]; n = 0 }

let add t ~ts v =
  let n = t.n in
  if n = Array.length t.ts then begin
    let grow a =
      let b = Array.make (max 64 (2 * n)) 0 in
      Array.blit a 0 b 0 n;
      b
    in
    t.ts <- grow t.ts;
    t.v <- grow t.v
  end;
  t.ts.(n) <- ts;
  t.v.(n) <- v;
  t.n <- n + 1

(* A k-way merge over a binary min-heap of unit indices keyed by each
   unit's next [(ts, unit)].  Units are distinct, so the key order is
   total; within a unit the log is already in emission order. *)
let merge logs f =
  let k = Array.length logs in
  let pos = Array.make k 0 and heap = Array.make k 0 in
  let before u w =
    let tu = logs.(u).ts.(pos.(u)) and tw = logs.(w).ts.(pos.(w)) in
    tu < tw || (tu = tw && u < w)
  in
  let rec sift_down size i =
    let l = (2 * i) + 1 in
    if l < size then begin
      let r = l + 1 in
      let c = if r < size && before heap.(r) heap.(l) then r else l in
      if before heap.(c) heap.(i) then begin
        let x = heap.(i) in
        heap.(i) <- heap.(c);
        heap.(c) <- x;
        sift_down size c
      end
    end
  in
  let size = ref 0 in
  for u = 0 to k - 1 do
    if logs.(u).n > 0 then begin
      heap.(!size) <- u;
      incr size
    end
  done;
  for i = (!size / 2) - 1 downto 0 do
    sift_down !size i
  done;
  while !size > 0 do
    let u = heap.(0) in
    let log = logs.(u) in
    let p = pos.(u) in
    f log.ts.(p) u log.v.(p);
    pos.(u) <- p + 1;
    if p + 1 = log.n then begin
      decr size;
      heap.(0) <- heap.(!size)
    end;
    sift_down !size 0
  done;
  Array.iter (fun log -> log.n <- 0) logs
