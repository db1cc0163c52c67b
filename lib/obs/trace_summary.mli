(** Offline analysis of JSONL trace files written by {!Obs.jsonl_sink}:
    the engine behind [step trace FILE.jsonl]. It reads the trace through
    {!Profile.of_file}, so [step trace] and [step profile] agree on wall
    time and orphans. *)

type row = {
  name : string;
  count : int;
  total_s : float;  (** Sum of span durations. *)
  self_s : float;  (** Sum of span self times — the hot-path signal. *)
  max_s : float;  (** Longest single span. *)
}

type t = {
  rows : row list;  (** Per span name, self-time descending. *)
  wall_s : float;
      (** Sum of root-span durations; as in {!Profile}, a span whose
          parent is missing from the trace counts as a root. *)
  n_records : int;
  n_orphans : int;  (** {!Profile.t.n_orphans}: spans cut off a parent. *)
  contexts : (string * string * float) list;
      (** [(ancestor, name, total_s)] for leaf-level [sat.*] spans grouped
          by their nearest engine ancestor ([qbf.*], [cegar.*], [mg.*],
          [ljh.*], [pipeline.*]), or ["(root)"] when none — answers
          "verification SAT vs abstraction SAT, per engine". *)
}

val of_file : string -> t
(** Folds {!Profile.of_file}'s call-path trie into per-name rows and SAT
    contexts.
    @raise Failure on unreadable files or malformed lines. *)

val render : t -> string
(** Aligned-text breakdown. *)

val diff : ?threshold:float -> t -> t -> string * int
(** [diff base cur] compares two runs span-name by span-name: count,
    total and self-time deltas, with rows whose self time moved by more
    than [threshold] (relative, default [0.10]) — or that appear in only
    one run — marked with [!]. Returns the report and the number of
    significant deltas; diffing a run against itself returns [(_, 0)]. *)
