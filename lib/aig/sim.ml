(* Program layout: slot 0 is the constant, slots 1..n the inputs by
   position, slots n+1.. the cone's AND nodes in ascending node-id order
   (a topological order). [prog] holds two slot edges per AND,
   [2 * slot + complement], so a fanin value is
   [vals.(e lsr 1) lxor (-(e land 1))]. *)

type t = {
  n : int;
  prog : int array;
  vals : int array;
  out : int; (* slot edge of the output *)
  flips : int array;
}

let lanes = Sys.int_size

let compile m ~inputs e =
  let n = Array.length inputs in
  let top = Aig.node_of e in
  (* node id -> slot; -1 unvisited, -2 a visited AND awaiting its slot.
     An input created after [top] cannot be in the cone and gets none. *)
  let slot = Array.make (top + 1) (-1) in
  slot.(0) <- 0;
  Array.iteri
    (fun j i ->
      let id = Aig.node_of (Aig.input m i) in
      if id <= top then begin
        if slot.(id) >= 0 then invalid_arg "Sim.compile: duplicate input";
        slot.(id) <- j + 1
      end)
    inputs;
  let ands = ref 0 in
  let stack = Stack.create () in
  Stack.push top stack;
  while not (Stack.is_empty stack) do
    let id = Stack.pop stack in
    if slot.(id) = -1 then
      match Aig.node_kind m id with
      | `And (a, b) ->
          slot.(id) <- -2;
          incr ands;
          Stack.push (Aig.node_of a) stack;
          Stack.push (Aig.node_of b) stack
      | `Input _ -> invalid_arg "Sim.compile: cone input missing from [inputs]"
      | `Const -> ()
  done;
  let prog = Array.make (2 * !ands) 0 in
  let slot_edge e = (2 * slot.(Aig.node_of e)) lor (e land 1) in
  let k = ref 0 in
  for id = 1 to top do
    if slot.(id) = -2 then begin
      let a, b = Aig.fanins m id in
      prog.(2 * !k) <- slot_edge a;
      prog.((2 * !k) + 1) <- slot_edge b;
      slot.(id) <- n + 1 + !k;
      incr k
    end
  done;
  {
    n;
    prog;
    vals = Array.make (n + 1 + !ands) 0;
    out = slot_edge e;
    flips = Array.make n 0;
  }

let check_pos s j =
  if j < 0 || j >= s.n then invalid_arg "Sim: input position out of range"

let set_input s j w =
  check_pos s j;
  s.vals.(j + 1) <- w

(* Every slot edge in [prog] and [out] was built by [compile] and points
   below the slot being written, so the unchecked accesses stay in
   bounds. *)
let run s =
  let prog = s.prog and vals = s.vals in
  let first = s.n + 1 in
  for k = 0 to (Array.length prog / 2) - 1 do
    let a = Array.unsafe_get prog (2 * k) in
    let b = Array.unsafe_get prog ((2 * k) + 1) in
    let va = Array.unsafe_get vals (a lsr 1) lxor -(a land 1) in
    let vb = Array.unsafe_get vals (b lsr 1) lxor -(b land 1) in
    Array.unsafe_set vals (first + k) (va land vb)
  done;
  Array.unsafe_get vals (s.out lsr 1) lxor -(s.out land 1)

let run_flips s =
  let y = run s in
  for j = 1 to s.n do
    let w = s.vals.(j) in
    s.vals.(j) <- lnot w;
    s.flips.(j - 1) <- run s;
    s.vals.(j) <- w
  done;
  y

let flipped s j =
  check_pos s j;
  s.flips.(j)
