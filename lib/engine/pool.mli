(** Fixed-size domain pool over a closeable work queue.

    The engine's scheduling primitive: a mutex/condition-protected index
    queue drained by worker domains. Kept separate from {!Engine} so the
    fan-out logic is testable on its own. *)

type 'a outcome = ('a, exn * Printexc.raw_backtrace) result

val map_result :
  ?fatal:(exn -> bool) -> jobs:int -> int -> (int -> 'a) -> 'a outcome array
(** [map_result ~jobs n f] evaluates [f i] for every [i] in [0..n-1] in
    a per-job fault domain: slot [i] holds [Ok (f i)] or [Error] with
    the exception [f i] raised (and its backtrace) — one crashing job
    never discards its siblings' results. Slots are in index order
    regardless of which domain computed them or when.

    With [jobs <= 1] (or [n <= 1]) everything runs inline in the calling
    domain — no domains are spawned, so per-domain state (e.g. the
    tracing span stack) is the caller's. Otherwise [min jobs n - 1]
    extra domains are spawned and the calling domain works alongside
    them.

    [?fatal] classifies exceptions that must abort the whole map
    (interrupts, invariant violations): a fatal exception poisons the
    pool — jobs not yet started are skipped — and is re-raised, with its
    backtrace, once every domain has parked. Default: nothing is fatal.

    [f] must be safe to call from multiple domains concurrently. *)
