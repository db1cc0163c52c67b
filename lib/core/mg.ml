module Aig = Step_aig.Aig
module Sim = Step_aig.Sim
module Solver = Step_sat.Solver
module Mus = Step_mus.Mus
module Obs = Step_obs.Obs
module Clock = Step_obs.Clock
module Metrics = Step_obs.Metrics

let m_seeds = Metrics.counter "mg.seeds_tried"

let m_sat_calls = Metrics.counter "mg.sat_calls"

let m_found = Metrics.counter "mg.decomposed"

type result = {
  partition : Partition.t option;
  seeds_tried : int;
  sat_calls : int;
  cpu : float;
}

type seed_order = Spread | Signature

(* Seed pairs in a spread-out order: successive index gaps first, so that
   structurally close (often decomposition-friendly) pairs come early. *)
let seed_pairs support =
  let a = Array.of_list support in
  let n = Array.length a in
  let pairs = ref [] in
  for gap = n - 1 downto 1 do
    for i = 0 to n - 1 - gap do
      pairs := (a.(i), a.(i + gap)) :: !pairs
    done
  done;
  !pairs

let popcount w =
  let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
  go w 0

(* Simulation-guided ordering: pairs with the least overlapping
   sensitivity signatures first. A signature is [f ⊕ f[v flipped]] over
   [rounds] random words. The patterns are drawn as 64-bit words below
   [Int64.max_int], of which the simulator's lanes carry the low 63 bits;
   the top bit is 0 for every input in every round, so that last lane
   simulates the all-zero vector, done once in the extra row and counted
   [rounds] times. *)
let signature_pairs c =
  let p = Copies.problem c in
  let aig = p.Problem.aig in
  let support = Array.of_list p.Problem.support in
  let n = Array.length support in
  let sim = Copies.sim c in
  let st = Random.State.make [| 0x51d5; Aig.n_nodes aig |] in
  let rounds = 4 in
  let sigs = Array.make ((rounds + 1) * n) 0 in
  let signatures row =
    let y = Sim.run_flips sim in
    for j = 0 to n - 1 do
      sigs.((row * n) + j) <- y lxor Sim.flipped sim j
    done
  in
  for r = 0 to rounds - 1 do
    for j = 0 to n - 1 do
      Sim.set_input sim j
        (Int64.to_int (Random.State.int64 st Int64.max_int))
    done;
    signatures r
  done;
  for j = 0 to n - 1 do
    Sim.set_input sim j 0
  done;
  signatures rounds;
  let overlap u v =
    let acc = ref 0 in
    for r = 0 to rounds - 1 do
      acc := !acc + popcount (sigs.((r * n) + u) land sigs.((r * n) + v))
    done;
    let zero = sigs.((rounds * n) + u) land sigs.((rounds * n) + v) land 1 in
    !acc + (rounds * zero)
  in
  let scored = ref [] in
  for u = 0 to n - 2 do
    for v = u + 1 to n - 1 do
      scored := (overlap u v, (support.(u), support.(v))) :: !scored
    done
  done;
  List.sort compare !scored |> List.map snd

let partition_of_selectors (p : Problem.t) ~u ~v ~mus ~alpha_sel ~beta_sel =
  let mus_set = Hashtbl.create (2 * List.length mus + 1) in
  List.iter (fun l -> Hashtbl.replace mus_set l ()) mus;
  let in_mus l = Hashtbl.mem mus_set l in
  let xa = ref [ u ] and xb = ref [ v ] and xc = ref [] in
  List.iter
    (fun i ->
      if i <> u && i <> v then begin
        let a_free = not (in_mus (alpha_sel i)) in
        let b_free = not (in_mus (beta_sel i)) in
        match (a_free, b_free) with
        | true, false -> xa := i :: !xa
        | false, true -> xb := i :: !xb
        | false, false -> xc := i :: !xc
        | true, true ->
            (* free on both sides: balance *)
            if List.length !xa <= List.length !xb then xa := i :: !xa
            else xb := i :: !xb
      end)
    p.Problem.support;
  Partition.make ~xa:!xa ~xb:!xb ~xc:!xc

let find ?copies ?seed_limit ?(seed_order = Spread) ?time_budget
    (p : Problem.t) g =
  Obs.span
    ~attrs:[ ("n", Step_obs.Json.Int (Problem.n_vars p)) ]
    "mg.find"
  @@ fun () ->
  let t0 = Clock.now () in
  let n = Problem.n_vars p in
  let finish partition seeds_tried sat_calls =
    Metrics.add m_seeds seeds_tried;
    Metrics.add m_sat_calls sat_calls;
    if partition <> None then Metrics.inc m_found;
    Obs.add_attr "seeds_tried" (Step_obs.Json.Int seeds_tried);
    Obs.add_attr "sat_calls" (Step_obs.Json.Int sat_calls);
    Obs.add_attr "decomposed" (Step_obs.Json.Bool (partition <> None));
    { partition; seeds_tried; sat_calls; cpu = Clock.elapsed_since t0 }
  in
  if n < 2 then finish None 0 0
  else begin
    let c =
      match copies with
      | Some c ->
          Copies.validate "Mg.find" c p g;
          c
      | None -> Copies.create p g
    in
    let solver = Copies.solver c in
    let deadline =
      match time_budget with Some b -> t0 +. b | None -> infinity
    in
    let limit =
      match seed_limit with
      | Some l -> l
      | None -> min (4 * n) (n * (n - 1) / 2)
    in
    let sat_calls = ref 0 in
    let alpha_sel i = Copies.alpha_selector c i in
    let beta_sel i = Copies.beta_selector c i in
    (* assumptions for the seed partition {u | v | rest}: all equalities
       except u on copy 1 and v on copy 2 *)
    let support = Array.of_list p.Problem.support in
    let seed_assumptions u v =
      let asm = ref [] in
      for j = Array.length support - 1 downto 0 do
        let i = support.(j) in
        if i <> v then asm := beta_sel i :: !asm;
        if i <> u then asm := alpha_sel i :: !asm
      done;
      !asm
    in
    let rec scan pairs tried =
      if tried >= limit || Clock.now () > deadline then
        finish None tried !sat_calls
      else
        match pairs with
        | [] -> finish None tried !sat_calls
        | (u, v) :: rest -> begin
            incr sat_calls;
            match
              Solver.solve_limited ~assumptions:(seed_assumptions u v) solver
            with
            | Solver.Sat -> scan rest (tried + 1)
            | Solver.Unknown -> finish None (tried + 1) !sat_calls
            | Solver.Unsat ->
                (* decomposable under the seed: minimize the equality set *)
                let hard = [ beta_sel u; alpha_sel v ] in
                let selectors =
                  List.concat_map
                    (fun i ->
                      if i = u || i = v then []
                      else [ alpha_sel i; beta_sel i ])
                    p.Problem.support
                in
                let mus =
                  Obs.span "mg.mus" (fun () ->
                      Mus.minimize ~hard solver ~selectors)
                in
                let partition =
                  partition_of_selectors p ~u ~v ~mus ~alpha_sel ~beta_sel
                in
                finish (Some partition) (tried + 1) !sat_calls
          end
    in
    let pairs =
      match seed_order with
      | Spread -> seed_pairs p.Problem.support
      | Signature -> signature_pairs c
    in
    scan pairs 0
  end
