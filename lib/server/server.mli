(** The [step serve] daemon: a long-lived decomposition service.

    Speaks the {!Step_api.Api} JSON-lines protocol — one request per
    line in, one response per line out, per-PO records streamed as they
    finish — over stdin/stdout ({!serve_stdio}, the scriptable/test
    transport) or a Unix domain socket ({!serve_socket}, each
    connection a task of the engine's worker pool). All transports share one {!t}: uploaded circuit
    handles, the warm decomposition cache in the base configuration,
    and the admission slots.

    {b Admission.} [max_inflight] is a pool of per-PO job slots. A
    decompose request reserves [jobs] slots for its whole run (a sleep
    reserves one); a request that cannot get its slots — or alone wants
    more than the pool holds — is rejected with
    {!Step_api.Api.code_admission} instead of queueing, so load shedding
    is immediate and deterministic.

    {b Deadlines.} Budgets requested above [max_budget] are rejected
    with {!Step_api.Api.code_deadline}; budgets the request leaves
    unspecified are clamped down to it. The engine's own budget
    machinery then enforces the resulting per-request deadline.

    {b Drain.} A [drain] request, SIGINT or SIGTERM flips the service
    into draining: in-flight requests complete and their sinks flush,
    new work is rejected with {!Step_api.Api.code_draining}, and the
    serve loops return — with exit code 130/143 when a signal started
    the drain (see docs/SERVER.md). *)

type config = {
  base : Step_engine.Config.t;
      (** Per-request starting point; requests patch it
          ({!Step_api.Api.apply_patch}). Its [cache] is the shared warm
          cache. *)
  max_inflight : int;  (** Per-PO job slots across all clients. *)
  max_budget : float;  (** Per-request budget cap, seconds. *)
}

type t

val create : config -> t

val draining : t -> bool

val request_drain : t -> ?exit_code:int -> unit -> unit
(** Flip into draining mode. [exit_code] (default 0) is what the serve
    loop returns once drained — signal handlers pass 130/143. Safe to
    call from a signal handler: sets atomics only. *)

val exit_code : t -> int

val stats : t -> Step_api.Api.server_stats

val handle_request :
  t -> emit:(Step_api.Api.response -> unit) -> Step_api.Api.request -> unit
(** Run one request, emitting zero or more streamed responses and a
    final one. Never raises on bad input — protocol and server errors
    become {!Step_api.Api.Error} responses; only fatal exceptions
    ({!Step_engine.Retry.fatal}: [Exit], [Sys.Break], sanitizer
    violations) pass through. *)

val handle_line : t -> emit:(string -> unit) -> string -> unit
(** {!handle_request} over one raw JSON line: parse errors become
    structured error responses carrying the salvaged request [id].
    [emit] receives rendered JSON, no trailing newline. *)

val serve_stdio : t -> int
(** Serve stdin → stdout until EOF or drain; returns the exit code.
    The reader polls the drain flag between short [select] waits, so a
    signal during idle wakes the loop promptly, and a signal during an
    in-flight request takes effect as soon as the request completes. *)

val serve_socket : t -> path:string -> int
(** Bind [path], accept until drained, and serve each connection as a
    {!Step_engine.Pool.try_async} task; returns the exit code once
    every connection has ended, and removes the socket file.

    The pool's cap is the connection cap: when every worker is busy, a
    new connection gets one {!Step_api.Api.code_admission} error line
    and is closed. Transient [accept] failures (aborted connections,
    descriptor exhaustion) keep the listening socket.

    [path] is replaced only when stale, i.e. when a probe [connect] is
    refused. Raises [Unix.Unix_error (EADDRINUSE, _, _)] when another
    server is listening on it, leaving that socket in place. A fatal
    exception ({!Step_engine.Retry.fatal}) in a connection drains the
    server and is re-raised once every connection has ended. *)
