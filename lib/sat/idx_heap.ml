(* [heap.(0 .. size-1)] is a binary max-heap of keys ordered by their
   score; [pos.(k)] is [k]'s index in [heap], -1 if absent. The scores
   live with the caller and are passed to every operation that compares,
   so no closure is called per comparison. Sifts move a hole instead of
   swapping, and break ties exactly as a swap-based heap comparing with
   [>] does: a key rises only above a strictly smaller parent, and on the
   way down the right child is taken only when strictly greater than the
   left. *)
type t = {
  mutable heap : int array;
  mutable size : int;
  mutable pos : int array;
}

let create () = { heap = Array.make 64 0; size = 0; pos = Array.make 64 (-1) }

let ensure_key t k =
  let n = Array.length t.pos in
  if k >= n then begin
    let pos = Array.make (max (2 * n) (k + 1)) (-1) in
    Array.blit t.pos 0 pos 0 n;
    t.pos <- pos
  end

let in_heap t k = k < Array.length t.pos && t.pos.(k) >= 0

let size t = t.size

let is_empty t = t.size = 0

let sift_up t (score : float array) i =
  let heap = t.heap and pos = t.pos in
  let k = Array.unsafe_get heap i in
  let sk = score.(k) in
  let i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) lsr 1 in
    let kp = Array.unsafe_get heap p in
    if sk > score.(kp) then begin
      Array.unsafe_set heap !i kp;
      Array.unsafe_set pos kp !i;
      i := p
    end
    else moving := false
  done;
  Array.unsafe_set heap !i k;
  Array.unsafe_set pos k !i

let sift_down t (score : float array) i =
  let heap = t.heap and pos = t.pos and n = t.size in
  let k = Array.unsafe_get heap i in
  let sk = score.(k) in
  let i = ref i and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= n then moving := false
    else begin
      let c =
        if
          l + 1 < n
          && score.(Array.unsafe_get heap (l + 1))
             > score.(Array.unsafe_get heap l)
        then l + 1
        else l
      in
      let kc = Array.unsafe_get heap c in
      if score.(kc) > sk then begin
        Array.unsafe_set heap !i kc;
        Array.unsafe_set pos kc !i;
        i := c
      end
      else moving := false
    end
  done;
  Array.unsafe_set heap !i k;
  Array.unsafe_set pos k !i

let insert t score k =
  ensure_key t k;
  if t.pos.(k) < 0 then begin
    if t.size = Array.length t.heap then begin
      let heap = Array.make (2 * t.size) 0 in
      Array.blit t.heap 0 heap 0 t.size;
      t.heap <- heap
    end;
    let i = t.size in
    t.heap.(i) <- k;
    t.pos.(k) <- i;
    t.size <- i + 1;
    sift_up t score i
  end

let remove_max t score =
  if t.size = 0 then invalid_arg "Idx_heap.remove_max: empty";
  let heap = t.heap in
  let top = Array.unsafe_get heap 0 in
  t.pos.(top) <- -1;
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let last = Array.unsafe_get heap n in
    Array.unsafe_set heap 0 last;
    t.pos.(last) <- 0;
    sift_down t score 0
  end;
  top

let increased t score k = if in_heap t k then sift_up t score t.pos.(k)

let audit t score report =
  for i = 0 to t.size - 1 do
    let k = t.heap.(i) in
    if k < 0 || k >= Array.length score then
      report (Printf.sprintf "heap slot %d holds key %d with no score" i k)
    else if k >= Array.length t.pos || t.pos.(k) <> i then
      report
        (Printf.sprintf "heap slot %d holds key %d whose position is %d" i k
           (if k < Array.length t.pos then t.pos.(k) else -1))
    else if i > 0 then begin
      let p = t.heap.((i - 1) / 2) in
      if p >= 0 && p < Array.length score && score.(k) > score.(p) then
        report
          (Printf.sprintf "key %d (score %g) sits below key %d (score %g)" k
             score.(k) p score.(p))
    end
  done;
  Array.iteri
    (fun k i ->
      if i >= 0 && (i >= t.size || t.heap.(i) <> k) then
        report
          (Printf.sprintf "key %d has position %d but is not in that slot" k i))
    t.pos
