(** Brute-force 2QBF evaluation, the test oracle for {!Step_qbf.Cegar}.

    Exponential in the number of variables; only use on small supports. *)

val exists_forall :
  Step_aig.Aig.t ->
  matrix:Step_aig.Aig.lit ->
  exists_vars:int list ->
  forall_vars:int list ->
  bool
(** Truth value of [∃X ∀Y . matrix] by full enumeration. *)

val forall_exists :
  Step_aig.Aig.t ->
  matrix:Step_aig.Aig.lit ->
  forall_vars:int list ->
  exists_vars:int list ->
  bool
