(** The paper's contribution: QBF models for optimum bi-decomposition
    (STEP-QD, STEP-QB, STEP-QDB).

    The 2QBF formulation (model (4)) existentially quantifies the control
    variables [αᵢ, βᵢ] — which spell out the partition:
    [(1,0) → XA, (0,1) → XB, (0,0) → XC] — and universally quantifies the
    function copies. Following Section IV-A.5, we solve the negated model
    (9) with a CEGAR loop in the style of AReQS:

    - the {e abstraction} is a SAT solver over [α, β] carrying the
      non-triviality constraints [fN] (AtLeast1(α) ∧ AtLeast1(β)), the
      symmetry-breaking constraint [|XA| ≥ |XB|], and the target
      constraints [fT] — totalizer counters whose bound [k] is selected
      per query by assumption literals, so the optimum search re-solves
      the same CNF;
    - for OR and AND, a candidate [(α,β)] is first simulated
      ({!Sim_filter}: up to 252 points, the first 63 starting from the
      most recent SAT counterexamples); a refuting lane, shrunk greedily,
      refines like a SAT counterexample and no SAT call is made;
    - {e verification} of a candidate simulation cannot refute (every XOR
      candidate) is one incremental SAT call on the shared {!Copies}
      scaffold, so every final answer is still proved by SAT;
    - a counterexample yields the refinement clause
      [∨_{i ∈ D1} ¬αᵢ ∨ ∨_{i ∈ D2} ¬βᵢ] where [D1]/[D2] are the inputs on
      which the counterexample's copies 1/2 differ from [X], plus its
      mirror over [(D2, D1)]: the Prop.1 miter is symmetric in copies 1
      and 2, so the swapped counterexample refutes it too. An empty
      clause raises [Invalid_argument] (it would make a decomposable
      function look not decomposable);
    - for OR and AND, before the first query, bit-parallel simulation
      ({!Copies.sim}, about a thousand seeded vectors) finds input
      pairs [{u, v}] with a lane where [f = 1] (OR; [f = 0] for AND)
      and flipping either input alone changes [f]; each such lane refutes
      [{u} | {v} | rest], and since moving inputs into [XC] keeps a
      partition decomposable, [(¬αᵤ ∨ ¬βᵥ)] and [(¬αᵥ ∨ ¬βᵤ)] are
      added (see docs/ALGORITHMS.md §2.1).

    All refinements are valid for every bound [k] and target, so they
    accumulate across the whole optimum search. The simulation seeds are
    fixed per problem, so answers do not depend on [-j].

    The target integer [k] instantiates the paper's constraints:
    (5) [|XC| ≤ k] for disjointness, (6) [0 ≤ |XA| − |XB| ≤ k] for
    balancedness, (8) [|XC| + |XA| − |XB| ≤ k] for the combined cost —
    the latter implemented through the identity
    [|XC| + |XA| − |XB| = n − 2·|XB|]. *)

type target =
  | Disjointness
  | Balancedness
  | Combined
  | Weighted of { wd : int; wb : int }
      (** Definition 4 with arbitrary non-negative integer weights:
          minimizes [wd·|XC| + wb·(|XA| − |XB|)] under [|XA| ≥ |XB|].
          [Combined] is the normalized special case [wd = wb = 1]. *)

type strategy =
  | Mi  (** Monotonically increasing [k]. *)
  | Md  (** Monotonically decreasing [k]. *)
  | Bin  (** Dichotomic (binary) search. *)
  | Composite
      (** The paper's tuned sequence MD → Bin → MI for disjointness. *)

type outcome = {
  partition : Partition.t option;
      (** Best partition found ([None] = not decomposable, or nothing
          found within budget). *)
  optimal : bool;
      (** The partition provably attains the optimum [k] for the target. *)
  best_k : int option; (** Target value of the best partition. *)
  refinements : int; (** CEGAR counterexamples processed. *)
  qbf_queries : int; (** Bounded queries (abstraction solve batches). *)
  cpu : float;
}

val target_name : target -> string
(** Stable lowercase label, used in span attributes and reports. *)

val target_k : target -> Partition.t -> int
(** The integer the target bounds, for a canonicalized partition. *)

val default_strategy : target -> strategy
(** What the paper found best: Composite for disjointness and the
    combined cost, MI for balancedness. *)

val optimize :
  ?copies:Copies.t ->
  ?symmetry_breaking:bool ->
  ?strategy:strategy ->
  ?bootstrap:Partition.t ->
  ?max_refinements:int ->
  ?time_budget:float ->
  Problem.t ->
  Gate.t ->
  target ->
  outcome
(** Runs the optimum search. [bootstrap] (typically the STEP-MG partition)
    provides the initial upper bound; without it the search first decides
    plain decomposability at the loosest bound. [symmetry_breaking]
    defaults to [true]. With a [bootstrap], the result is never worse than
    it (mirroring the paper's setup).
    @raise Invalid_argument if [copies] was built for another problem or
    gate (see {!Copies.validate}). *)
