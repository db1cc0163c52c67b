(** Hotpath profiles aggregated from span streams.

    Folds the spans of a run — live via {!collector}, or post-hoc from a
    JSONL trace file — into a trie keyed by call path, with per-path call
    counts, total time and self time. Handles multi-domain traces: worker
    spans root at depth 0, so a trace has several genuine roots and they
    aggregate side by side without double counting.

    Coverage: the span runtime guarantees a root's subtree self times sum
    to the root's duration, so [attributed_s / wall_s] measures how much
    of the run's wall-clock instrumented spans account for. Spans whose
    parent never reached the sink (truncated trace) are grafted in as
    roots and counted in [n_orphans]. *)

type node = {
  pn_name : string;
  mutable pn_count : int;
  mutable pn_total_s : float;  (** Sum of durations at this exact path. *)
  mutable pn_self_s : float;
  mutable pn_max_s : float;
  pn_children : (string, node) Hashtbl.t;
}

type t = {
  roots : node list;  (** Sorted by total time, descending. *)
  wall_s : float;  (** Sum of root-span durations. *)
  attributed_s : float;  (** Sum of all span self times. *)
  n_spans : int;
  n_orphans : int;
  n_records : int;  (** Records read, events included. *)
}

val of_records : Obs.record list -> t
(** Events are ignored; order does not matter (children may precede
    parents, as they do in emitted traces). *)

val of_file : string -> t
(** Parse a JSONL trace. Raises [Failure] with file/line context on
    malformed input. *)

val collector : unit -> Obs.sink * (unit -> t)
(** A sink that accumulates spans in memory plus a function building the
    profile from what has arrived. Combine with {!Obs.tee_sink} to
    profile and trace simultaneously. Call the getter after the run. *)

val coverage : t -> float
(** [attributed_s / wall_s]; [1.0] for an empty profile. *)

val header : t -> string
(** One line: ["profile: N spans, W.WWWs wall, P.P% attributed"]. *)

val render : ?max_depth:int -> t -> string
(** Hierarchical table: indentation mirrors the call tree. *)

val render_hot : ?limit:int -> t -> string
(** Flattened paths ranked by self time (default top 25). *)

val hot_rows : t -> (string * int * float * float) list
(** [(path, count, total_s, self_s)], hottest self time first. *)

val to_folded : t -> string
(** Folded-stack text (["a;b;c 1234"], weight = self time in µs) for
    flamegraph.pl / speedscope. Zero-weight paths are dropped. *)
