(** Process-wide metrics registry: named counters, gauges and log-scale
    latency histograms.

    Handles are created once (module-level, by name; creating the same
    name twice returns the same underlying cell) and updated from hot
    paths without hashing per update, so instrumentation can stay on even
    in tight solver loops. Rendering and JSON export walk the registry.

    The registry is global and {e domain-safe}: counters and gauges are
    atomics, histograms are mutex-protected, and find-or-create is
    serialized — so the parallel engine's worker domains update the same
    process-wide metrics the sequential pipeline does, and their
    contributions merge for free.

    Every report ({!render}, {!to_json}, {!expose}) is built from one
    atomic registry {!snapshot}: the counter/gauge/histogram sections of
    a single report can never disagree about which metrics exist. *)

type counter

type gauge

type histogram

val counter : string -> counter
(** Find-or-create the counter with this name. *)

val inc : counter -> unit

val add : counter -> int -> unit

val value : counter -> int

val gauge : string -> gauge

val set : gauge -> float -> unit

val gauge_value : gauge -> float

val histogram : string -> histogram
(** Find-or-create. Buckets are logarithmic: 10 per decade covering
    [1e-7, 1e3] (seconds), with underflow/overflow buckets at the ends.
    Exact count/sum/min/max are tracked alongside the buckets. *)

val observe : histogram -> float -> unit

(** {1 Deep telemetry switch}

    Expensive probes (per-conflict LBD computation, per-phase solver
    timers, CEGAR per-iteration series, per-cone cache attribution
    output) are guarded by this process-wide flag so the default path
    pays one boolean read. Enable via [STEP_DEEP_TELEMETRY=1] or
    [--deep-stats]; flip it from the main domain before workers start. *)

val deep : unit -> bool

val set_deep : bool -> unit

type histogram_stats = {
  count : int;
  sum : float;
  min : float;  (** [nan] when empty. *)
  max : float;  (** [nan] when empty. *)
  p50 : float;  (** Quantiles from bucket midpoints, clamped to
                    [[min, max]]; [nan] when empty. *)
  p90 : float;
  p99 : float;
}

val stats : histogram -> histogram_stats

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [[0, 1]]; [nan] when empty. *)

(** {1 Mergeable histogram snapshots}

    A snapshot is a plain value (bucket counts + exact count/sum/min/max)
    that can cross domains and merge losslessly with any other snapshot
    of the same layout — per-domain or per-run histograms combine bucket
    by bucket, and quantiles of the merge are as accurate as quantiles of
    either input. *)

type histogram_snapshot = {
  s_buckets : int array;
  s_count : int;
  s_sum : float;
  s_min : float;
  s_max : float;
}

val export : histogram -> histogram_snapshot

val empty_snapshot : unit -> histogram_snapshot

val merge : histogram_snapshot -> histogram_snapshot -> histogram_snapshot
(** Raises [Invalid_argument] if the bucket layouts differ. *)

val snapshot_quantile : histogram_snapshot -> float -> float

val snapshot_stats : histogram_snapshot -> histogram_stats

val bucket_index : float -> int
(** Bucket an observation lands in (0 = underflow, last = overflow).
    Exposed for boundary tests. *)

val n_buckets : int

(** {1 Registry-wide snapshot} *)

type snapshot = {
  snap_counters : (string * int) list;  (** Sorted by name. *)
  snap_gauges : (string * float) list;
  snap_histograms : (string * histogram_snapshot) list;
}

val snapshot : unit -> snapshot
(** One complete view of the registry under a single lock acquisition:
    includes every metric registered before the call, including ones
    created after any earlier report was rendered. *)

val counters : unit -> (string * int) list
(** Sorted by name; zero-valued entries included. *)

val gauges : unit -> (string * float) list

val histograms : unit -> (string * histogram_stats) list

val reset : unit -> unit
(** Zero every registered metric. Handles stay valid. *)

val render : unit -> string
(** Aligned-text report of every non-empty metric. *)

val to_json : unit -> Json.t
(** [{ "counters": {...}, "gauges": {...}, "histograms": {...} }]. *)

(** {1 Exposition} *)

val expose : unit -> string
(** The full registry in Prometheus text format 0.0.4: counters and
    gauges verbatim (names prefixed [step_], dots → underscores),
    histograms as summaries with [quantile="0.5"/"0.9"/"0.99"] series
    plus [_sum]/[_count]. Zero-valued metrics are included — scrapers
    want stable series. *)

val dump_file : format:[ `Prometheus | `Json ] -> string -> unit
(** Write one snapshot to a file, atomically (temp file + rename). *)

val start_periodic_dump :
  path:string ->
  interval_s:float ->
  format:[ `Prometheus | `Json ] ->
  unit ->
  unit ->
  unit
(** [let stop = start_periodic_dump ~path ~interval_s ~format ()] starts
    a writer thread that republishes [path] every [interval_s] seconds;
    [stop ()] halts it and writes one final snapshot. Raises
    [Invalid_argument] on a non-positive interval. *)
