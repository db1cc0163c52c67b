module Sim = Step_aig.Sim

(* Simulated words per candidate at most. *)
let words = 4

(* Input words are held by support position; lane l of a word is one
   point. [ring.(j)] carries, in lane l, input j of the l-th most recent
   SAT counterexample: [record] shifts every word up one lane. *)
type t = {
  copies : Copies.t;
  or_gate : bool;
  n : int;
  st : Random.State.t;
  ring : int array;
  mutable recorded : int; (* ring lanes in use, at most Sim.lanes *)
  block : Bytes.t; (* the candidate's block per position: 'a' 'b' 'c' *)
  x : int array;
  x1 : int array; (* X', differs from X only on XA *)
  x2 : int array; (* X'', differs from X only on XB *)
}

let create copies =
  let or_gate =
    match Copies.gate copies with
    | Gate.Or_gate -> true
    | Gate.And_gate -> false
    | Gate.Xor_gate -> invalid_arg "Sim_filter.create: XOR scaffold"
  in
  let n = Problem.n_vars (Copies.problem copies) in
  {
    copies;
    or_gate;
    n;
    st = Random.State.make [| 0xf117; n |];
    ring = Array.make n 0;
    recorded = 0;
    block = Bytes.make n 'c';
    x = Array.make n 0;
    x1 = Array.make n 0;
    x2 = Array.make n 0;
  }

let record t =
  for j = 0 to t.n - 1 do
    let bit = if Copies.model_x t.copies j then 1 else 0 in
    t.ring.(j) <- (t.ring.(j) lsl 1) lor bit
  done;
  t.recorded <- min Sim.lanes (t.recorded + 1)

let random_word t = Int64.to_int (Random.State.bits64 t.st)

let eval sim xs =
  Array.iteri (Sim.set_input sim) xs;
  Sim.run sim

(* Lanes whose copy output still refutes: f = 0 under OR, f = 1 under AND. *)
let refuting t y = if t.or_gate then lnot y else y

(* Revert the copy [xs] (inputs of [blk]) toward X on the lanes of [mask],
   one input at a time in position order, keeping a revert on the lanes
   where the copy still refutes. Lanes outside [mask] are left as drawn. *)
let shrink t sim xs blk mask =
  Array.iteri (Sim.set_input sim) xs;
  for j = 0 to t.n - 1 do
    if Bytes.get t.block j = blk then begin
      let diff = (xs.(j) lxor t.x.(j)) land mask in
      if diff <> 0 then begin
        Sim.set_input sim j (xs.(j) lxor diff);
        xs.(j) <- xs.(j) lxor (refuting t (Sim.run sim) land diff);
        Sim.set_input sim j xs.(j)
      end
    end
  done

(* The inputs (by index) of block [blk] where copy [xs] differs from X on
   the lane of [lane], a one-bit mask. *)
let diff_on t xs blk lane =
  let support = (Copies.problem t.copies).Problem.support in
  List.filteri
    (fun j _ ->
      Bytes.get t.block j = blk && (xs.(j) lxor t.x.(j)) land lane <> 0)
    support

let refute t (part : Partition.t) =
  Bytes.fill t.block 0 t.n 'c';
  List.iter
    (fun i -> Bytes.set t.block (Copies.position t.copies i) 'a')
    part.Partition.xa;
  List.iter
    (fun i -> Bytes.set t.block (Copies.position t.copies i) 'b')
    part.Partition.xb;
  let sim = Copies.sim t.copies in
  let redraw xs blk =
    for j = 0 to t.n - 1 do
      xs.(j) <- (if Bytes.get t.block j = blk then random_word t else t.x.(j))
    done
  in
  let rec word w =
    if w = words then None
    else begin
      (* X: the recorded counterexamples in the first word's low lanes *)
      let ring =
        if w > 0 then 0
        else if t.recorded >= Sim.lanes then -1
        else (1 lsl t.recorded) - 1
      in
      for j = 0 to t.n - 1 do
        t.x.(j) <-
          (if ring = -1 then t.ring.(j)
           else (t.ring.(j) land ring) lor (random_word t land lnot ring))
      done;
      let y = eval sim t.x in
      redraw t.x1 'a';
      let y1 = eval sim t.x1 in
      redraw t.x2 'b';
      let y2 = eval sim t.x2 in
      let hit =
        if t.or_gate then y land lnot (y1 lor y2) else lnot y land y1 land y2
      in
      if hit = 0 then word (w + 1)
      else begin
        (* the lowest refuting lane: in the first word, the most recent
           counterexample that still refutes *)
        let lane = hit land -hit in
        shrink t sim t.x1 'a' lane;
        shrink t sim t.x2 'b' lane;
        Some (diff_on t t.x1 'a' lane, diff_on t t.x2 'b' lane)
      end
    end
  in
  word 0
