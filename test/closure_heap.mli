(** The decision heap as it was before it was specialised to activity
    scores: a swap-based binary max-heap ordered by a [gt] closure. Kept
    as the reference the property tests compare {!Step_sat.Idx_heap}
    against, operation for operation. *)

type t

val create : gt:(int -> int -> bool) -> t
(** [gt a b] means "key [a] ranks strictly above key [b]". *)

val is_empty : t -> bool

val insert : t -> int -> unit
(** No-op if the key is already present. *)

val remove_max : t -> int
(** @raise Invalid_argument if empty. *)

val increased : t -> int -> unit
(** Restore heap order after the key's score grew. No-op if absent. *)
