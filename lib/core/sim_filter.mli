(** Simulation before SAT: refutes QBF candidate partitions without a
    verification solve (OR and AND only).

    A candidate [(XA, XB, XC)] is refuted by three points [X], [X'],
    [X''] where [X'] differs from [X] only on [XA], [X''] only on [XB],
    and [f(X) = 1], [f(X') = f(X'') = 0] under OR ([f(X) = 0],
    [f(X') = f(X'') = 1] under AND). {!refute} looks for such points with
    the scaffold's simulator ({!Copies.sim}): up to 4 words of
    {!Step_aig.Sim.lanes} lanes, each lane one [X] with [X'] re-drawing
    the [XA] inputs and [X''] the [XB] inputs. In the first word, lane [l]
    starts from the [l]-th most recent SAT counterexample handed to
    {!record} (lanes past the ones recorded so far are random); later
    words are random. The lowest refuting lane (in the first word, the
    most recent counterexample that refutes) is shrunk greedily: each
    input where [X'] or [X''] differs from [X] is reverted in turn, and
    the revert is kept while that copy still refutes.

    The random stream is seeded by the support size, so a problem sees
    the same lanes in every run. *)

type t

val create : Copies.t -> t
(** Allocates the filter's buffers; the simulator is compiled by the
    first {!refute}.
    @raise Invalid_argument for an XOR scaffold (its witness needs a
    fourth point). *)

val record : t -> unit
(** After a [Sat] answer of {!Copies.check} on the filter's scaffold:
    adds the counterexample's [X] to the ring the first word starts
    from. *)

val refute : t -> Partition.t -> (int list * int list) option
(** [Some (d1, d2)]: simulated points refute every partition with
    [d1 ⊆ XA] and [d2 ⊆ XB]; [d1] and [d2] are non-empty, sorted, drawn
    from the candidate's [XA] and [XB], and the mirrored pair refutes too,
    exactly as for {!Copies.diff_sets}. [None]: no simulated lane refutes
    the candidate, which may still be indecomposable. *)
