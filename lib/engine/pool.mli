(** The process-wide set of worker domains — the one place that starts
    domains.

    Workers are started lazily: a task starts a new worker only when no
    worker is idle, and never more than {!max_workers} in all. A worker
    never exits; once its task returns it parks and is reused by the
    next task. So domains persist after the first parallel run, and a
    process that never runs anything in parallel starts none.

    A task starts with the worker's span stack ({!Step_obs.Obs}) empty
    and no fault scope ({!Step_fault.Fault}), whatever the worker ran
    before: both are restored on every exit from the span or scope that
    set them. *)

val max_workers : int
(** The cap on worker domains (64), well below the runtime's limit of
    128 domains per process. *)

val try_async : (unit -> unit) -> bool
(** [try_async task] hands [task] to an idle worker, or to a newly
    started one, and returns [true] without waiting for it. Returns
    [false], without running [task], when all {!max_workers} workers are
    busy (or a new domain cannot be allocated). A queued task always has
    a worker that will take it. An exception escaping [task] is
    discarded; the worker survives it. *)

type 'a outcome = ('a, exn * Printexc.raw_backtrace) result

val map_result :
  ?fatal:(exn -> bool) -> jobs:int -> int -> (int -> 'a) -> 'a outcome array
(** [map_result ~jobs n f] evaluates [f i] for every [i] in [0..n-1] in
    a per-job fault domain: slot [i] holds [Ok (f i)] or [Error] with
    the exception [f i] raised (and its backtrace) — one crashing job
    never discards its siblings' results. Slots are in index order
    regardless of which domain computed them or when.

    With [jobs <= 1] (or [n <= 1]) everything runs inline in the calling
    domain — no domain is started, so per-domain state (e.g. the
    tracing span stack) is the caller's. Otherwise the calling domain
    takes up to [min jobs n - 1] helpers from the pool ({!try_async})
    and drains the jobs alongside them. It takes only the helpers the
    pool can give at that moment, so a [jobs] above the cap runs on at
    most [max_workers + 1] domains, and a call nested in a worker task
    completes even when every worker is busy.

    [?fatal] classifies exceptions that must abort the whole map
    (interrupts, invariant violations): a fatal exception poisons the
    map — jobs not yet started are skipped — and is re-raised, with its
    backtrace, once every helper has returned. Default: nothing is
    fatal.

    [f] must be safe to call from multiple domains concurrently. *)
