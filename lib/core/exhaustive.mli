(** Exhaustive optimum-partition search by enumerating all partitions.

    The ground truth the paper's QBF models are meant to match: every
    non-trivial partition of the support is checked for decomposability
    and scored. Exponential ([3^n] partitions) — oracle use only. It
    lives in [lib], not [test], because [bin/fuzz.ml] and the benchmark's
    reference builder call it. *)

val best :
  ?objective:(Partition.t -> int) ->
  Problem.t ->
  Gate.t ->
  Partition.t option
(** Minimizing partition under [objective] (default
    {!Partition.disjointness_k}) among all decomposable non-trivial
    partitions; ties broken arbitrarily. [None] when the function is not
    bi-decomposable with this gate. *)

val all_decomposable : Problem.t -> Gate.t -> Partition.t list
(** Every decomposable non-trivial partition (canonicalized, deduplicated:
    [XA]/[XB] swaps are reported once). *)
