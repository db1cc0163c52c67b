module Aig = Step_aig.Aig
module Solver = Step_sat.Solver
module Lit = Step_sat.Lit
module Tseitin = Step_cnf.Tseitin
module Sim = Step_aig.Sim

(* Per-input data is held by support position, the index into
   [support]; [pos] maps an input index back to its position. *)
type t = {
  problem : Problem.t;
  gate : Gate.t;
  enc : Tseitin.t;
  support : int array;
  pos : int array; (* input idx -> position; -1 outside the support *)
  orig_lit : Lit.t array; (* SAT lit of x_i *)
  copy1_lit : Lit.t array; (* x'_i *)
  copy2_lit : Lit.t array; (* x''_i *)
  copy3_lit : Lit.t array; (* XOR only: x'''_i; empty otherwise *)
  sel_alpha : Lit.t array;
  sel_beta : Lit.t array;
  mark : Bytes.t; (* scratch of [assumptions]: each position's block *)
  sim : Sim.t Lazy.t; (* f's cone, inputs by position *)
}

let problem c = c.problem

let gate c = c.gate

let solver c = Tseitin.solver c.enc

let validate who c p g =
  if c.problem != p then
    invalid_arg (who ^ ": copies built for a different problem");
  if c.gate <> g then
    invalid_arg
      (Printf.sprintf "%s: copies built for gate %s, not %s" who
         (Gate.to_string c.gate) (Gate.to_string g))

(* fresh copy of the support inputs; returns idx -> substitution edge *)
let fresh_copy aig support tag =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun i ->
      let name = Printf.sprintf "%s_%d" tag i in
      Hashtbl.replace tbl i (Aig.fresh_input ~name aig))
    support;
  tbl

let substitution tbl i = Hashtbl.find_opt tbl i

let create ?(proof = false) (p : Problem.t) gate_ =
  let aig = p.Problem.aig in
  let support = p.Problem.support in
  let c1 = fresh_copy aig support "cpyA" in
  let c2 = fresh_copy aig support "cpyB" in
  let f1 = Aig.compose aig (substitution c1) p.Problem.f in
  let f2 = Aig.compose aig (substitution c2) p.Problem.f in
  let c3, matrix =
    match gate_ with
    | Gate.Or_gate ->
        (None, Aig.and_list aig [ p.Problem.f; Aig.not_ f1; Aig.not_ f2 ])
    | Gate.And_gate ->
        (None, Aig.and_list aig [ Aig.not_ p.Problem.f; f1; f2 ])
    | Gate.Xor_gate ->
        let c3 = fresh_copy aig support "cpyC" in
        let f3 = Aig.compose aig (substitution c3) p.Problem.f in
        (Some c3, Aig.xor_list aig [ p.Problem.f; f1; f2; f3 ])
  in
  let enc =
    if proof then Tseitin.create ~solver:(Solver.create ~proof:true ()) aig
    else Tseitin.create aig
  in
  let solver = Tseitin.solver enc in
  ignore (Solver.add_clause solver [ Tseitin.lit_of enc matrix ]);
  let input_lit tbl i = Tseitin.lit_of enc (Hashtbl.find tbl i) in
  let support_a = Array.of_list support in
  let n = Array.length support_a in
  let orig_lit = Array.make n (Lit.pos 0) in
  let copy1_lit = Array.make n (Lit.pos 0) in
  let copy2_lit = Array.make n (Lit.pos 0) in
  let copy3_lit = Array.make (if c3 = None then 0 else n) (Lit.pos 0) in
  Array.iteri
    (fun j i ->
      orig_lit.(j) <- Tseitin.lit_of_input enc i;
      copy1_lit.(j) <- input_lit c1 i;
      copy2_lit.(j) <- input_lit c2 i;
      match c3 with
      | Some c3 -> copy3_lit.(j) <- input_lit c3 i
      | None -> ())
    support_a;
  (* sel → (a ≡ b) for each equality pair carried by the selector *)
  let equal_under sel a b =
    ignore (Solver.add_clause solver [ Lit.negate sel; Lit.negate a; b ]);
    ignore (Solver.add_clause solver [ Lit.negate sel; a; Lit.negate b ])
  in
  let mk_selectors pairs_of =
    Array.init n (fun j ->
        let s = Tseitin.fresh enc in
        List.iter (fun (a, b) -> equal_under s a b) (pairs_of j);
        s)
  in
  let x j = orig_lit.(j) in
  let x1 j = copy1_lit.(j) in
  let x2 j = copy2_lit.(j) in
  let x3 j = copy3_lit.(j) in
  let sel_alpha, sel_beta =
    match gate_ with
    | Gate.Or_gate | Gate.And_gate ->
        ( mk_selectors (fun j -> [ (x j, x1 j) ]),
          mk_selectors (fun j -> [ (x j, x2 j) ]) )
    | Gate.Xor_gate ->
        (* the fourth point reuses the primed values: pinning i outside XA
           forces x ≡ x' and x''' ≡ x''; outside XB forces x ≡ x'' and
           x''' ≡ x'; both together collapse all four points *)
        ( mk_selectors (fun j -> [ (x j, x1 j); (x3 j, x2 j) ]),
          mk_selectors (fun j -> [ (x j, x2 j); (x3 j, x1 j) ]) )
  in
  let pos = Array.make (Array.fold_left max (-1) support_a + 1) (-1) in
  Array.iteri (fun j i -> pos.(i) <- j) support_a;
  {
    problem = p;
    gate = gate_;
    enc;
    support = support_a;
    pos;
    orig_lit;
    copy1_lit;
    copy2_lit;
    copy3_lit;
    sel_alpha;
    sel_beta;
    mark = Bytes.make n '\000';
    sim = lazy (Sim.compile aig ~inputs:support_a p.Problem.f);
  }

let position c i =
  if i >= 0 && i < Array.length c.pos && c.pos.(i) >= 0 then c.pos.(i)
  else raise Not_found

let sim c = Lazy.force c.sim

let alpha_selector c i = c.sel_alpha.(position c i)

let beta_selector c i = c.sel_beta.(position c i)

(* [assumptions] sits on the hot path of every Copies.check: it marks each
   position with its block in the reused [mark] buffer (blocks are
   disjoint, see Partition.make) and reads the selectors off in support
   order. *)
let assumptions c (p : Partition.t) =
  let n = Array.length c.support in
  Bytes.fill c.mark 0 n '\000';
  let covered = ref 0 in
  let put block i =
    match position c i with
    | j when Bytes.get c.mark j = '\000' ->
        Bytes.set c.mark j block;
        incr covered
    | _ | (exception Not_found) ->
        invalid_arg "Copies.assumptions: partition does not match support"
  in
  List.iter (put 'a') p.Partition.xa;
  List.iter (put 'b') p.Partition.xb;
  List.iter (put 'c') p.Partition.xc;
  if !covered <> n then
    invalid_arg "Copies.assumptions: partition does not match support";
  let asm = ref [] in
  for j = 0 to n - 1 do
    let block = Bytes.get c.mark j in
    if block <> 'a' then asm := c.sel_alpha.(j) :: !asm;
    if block <> 'b' then asm := c.sel_beta.(j) :: !asm
  done;
  !asm

let solve_assuming c assumptions =
  Solver.solve_limited ~assumptions (solver c)

let check c p = solve_assuming c (assumptions c p)

let model_x c j = Solver.model_value (solver c) c.orig_lit.(j)

let diff_sets c =
  let s = solver c in
  let differs a b j =
    Solver.model_value s a.(j) <> Solver.model_value s b.(j)
  in
  let collect violated =
    let acc = ref [] in
    for j = Array.length c.support - 1 downto 0 do
      if violated j then acc := c.support.(j) :: !acc
    done;
    !acc
  in
  match c.gate with
  | Gate.Or_gate | Gate.And_gate ->
      ( collect (differs c.orig_lit c.copy1_lit),
        collect (differs c.orig_lit c.copy2_lit) )
  | Gate.Xor_gate ->
      let x = c.orig_lit and x1 = c.copy1_lit in
      let x2 = c.copy2_lit and x3 = c.copy3_lit in
      ( collect (fun j -> differs x x1 j || differs x3 x2 j),
        collect (fun j -> differs x x2 j || differs x3 x1 j) )
