(** Binary max-heap over small integer keys with positional index: the
    CDCL solver's decision order.

    Keys are variable indices ordered by a [float array] of scores (the
    solver's activities) that the caller owns and passes to every
    operation that compares keys. The heap never reads a score outside
    those calls, so scores may change between them; after a key's score
    grows, {!increased} restores the order. Equal scores keep the order a
    swap-based heap comparing with [>] gives, so the sequence of removed
    keys is a pure function of the operations and the scores. *)

type t

val create : unit -> t
(** An empty heap. *)

val in_heap : t -> int -> bool

val size : t -> int

val is_empty : t -> bool

val insert : t -> float array -> int -> unit
(** [insert h score k] adds key [k]; no-op if already present. [score]
    must cover every key in the heap. *)

val remove_max : t -> float array -> int
(** Removes and returns a key of greatest score.
    @raise Invalid_argument if empty. *)

val increased : t -> float array -> int -> unit
(** Restore heap order after the key's score grew. No-op if absent. *)

val audit : t -> float array -> (string -> unit) -> unit
(** [audit h score report] calls [report] once per broken invariant: a
    key scoring above its parent, or a heap slot and its key's position
    that do not point at each other. *)
