(** Allocation-free bit-parallel simulation of one AIG cone.

    {!compile} flattens the cone of an edge once into a topologically
    ordered [int] program; every later simulation runs that program over a
    value buffer owned by the simulator. A value is a native [int] whose
    {!lanes} bits are independent evaluations, so one {!run} evaluates
    {!lanes} input vectors and nothing is allocated per vector or per run.

    Inputs are addressed by {e position}: position [j] is the [j]-th entry
    of the [inputs] array given to {!compile}. *)

type t

val lanes : int
(** Evaluations per word: [Sys.int_size] (63 on 64-bit platforms). *)

val compile : Aig.t -> inputs:int array -> Aig.lit -> t
(** [compile m ~inputs e] compiles the cone of [e]. [inputs] lists input
    indices (as in {!Aig.input}); all inputs start at [0].
    @raise Invalid_argument if the cone reads an input missing from
    [inputs], or if [inputs] repeats an input the cone may read. *)

val set_input : t -> int -> int -> unit
(** [set_input s j w]: position [j] carries the lanes of [w]. *)

val run : t -> int
(** Output word under the current inputs. *)

val run_flips : t -> int
(** [run], plus for every position [j] the output word with [j]'s word
    complemented (all other inputs unchanged), read back with {!flipped}.
    Costs one run per position plus one; the inputs are left as they
    were. *)

val flipped : t -> int -> int
(** Position [j]'s flipped output from the last {!run_flips}. *)
