module Api = Step_api.Api
module Json = Step_obs.Json
module Obs = Step_obs.Obs
module Metrics = Step_obs.Metrics
module Diag = Step_lint.Diag
module Config = Step_engine.Config
module Engine = Step_engine.Engine
module Retry = Step_engine.Retry
module Cache = Step_cache.Cache
module Circuit = Step_aig.Circuit

type config = { base : Config.t; max_inflight : int; max_budget : float }

type t = {
  cfg : config;
  handles : (string, Circuit.t) Hashtbl.t;
  handles_mu : Mutex.t;
  slots_used : int Atomic.t;
  drain_flag : bool Atomic.t;
  drain_code : int Atomic.t;
  n_requests : int Atomic.t;
  n_rejected : int Atomic.t;
}

let m_requests = Metrics.counter "server.requests"

let m_rejected = Metrics.counter "server.rejected"

let g_inflight = Metrics.gauge "server.inflight"

let create cfg =
  {
    cfg;
    handles = Hashtbl.create 16;
    handles_mu = Mutex.create ();
    slots_used = Atomic.make 0;
    drain_flag = Atomic.make false;
    drain_code = Atomic.make 0;
    n_requests = Atomic.make 0;
    n_rejected = Atomic.make 0;
  }

let draining t = Atomic.get t.drain_flag

let request_drain t ?(exit_code = 0) () =
  (* Signal-handler safe: atomics only. The first caller's exit code
     wins, so a drain request followed by SIGTERM still exits 0. *)
  if Atomic.compare_and_set t.drain_flag false true then
    Atomic.set t.drain_code exit_code

let exit_code t = Atomic.get t.drain_code

(* ---------- admission slots ---------- *)

let try_reserve t n =
  let rec go () =
    let cur = Atomic.get t.slots_used in
    if cur + n > t.cfg.max_inflight then false
    else if Atomic.compare_and_set t.slots_used cur (cur + n) then (
      Metrics.set g_inflight (float_of_int (cur + n));
      true)
    else go ()
  in
  go ()

let release t n =
  let now = Atomic.fetch_and_add t.slots_used (-n) - n in
  Metrics.set g_inflight (float_of_int now)

(* ---------- state ---------- *)

let stats t =
  {
    Api.requests = Atomic.get t.n_requests;
    rejected = Atomic.get t.n_rejected;
    inflight = Atomic.get t.slots_used;
    handles = Mutex.protect t.handles_mu (fun () -> Hashtbl.length t.handles);
    cache =
      Option.map
        (fun c ->
          let s = Cache.stats c in
          { Api.hits = s.Cache.hits; misses = s.Cache.misses; entries = s.Cache.entries })
        t.cfg.base.Config.cache;
  }

let handle_of ~format ~text =
  "c" ^ String.sub (Digest.to_hex (Digest.string (format ^ ":" ^ text))) 0 12

let parse_circuit ~format ~text =
  let parse = if format = "blif" then Step_aig.Blif.parse_string else Step_aig.Aag.parse_string in
  match parse text with
  | c -> Ok c
  | exception Failure msg ->
      Error (Diag.error ~code:Api.code_bad_circuit ("bad " ^ format ^ " circuit: " ^ msg))

let find_handle t h =
  Mutex.protect t.handles_mu (fun () -> Hashtbl.find_opt t.handles h)

(* ---------- per-request configuration ---------- *)

let ( let* ) = Result.bind

let err code fmt = Printf.ksprintf (fun m -> Error (Diag.error ~code m)) fmt

(* Budgets a request asks for above the cap are refused ([SRV006]);
   budgets it leaves unspecified are clamped down to the cap — the base
   config's 6000 s circuit timeout is a batch default, not something a
   shared server should honour implicitly. *)
let request_config t (patch : Api.config_patch) =
  let cap = t.cfg.max_budget in
  let check what = function
    | Some b when b > cap ->
        err Api.code_deadline "%s %gs exceeds the server cap of %gs" what b cap
    | _ -> Ok ()
  in
  let* () = check "per_po_budget" patch.Api.per_po_budget in
  let* () = check "total_budget" patch.Api.total_budget in
  let c = Api.apply_patch patch t.cfg.base in
  let c =
    if patch.Api.total_budget = None then
      { c with Config.total_budget = Float.min c.Config.total_budget cap }
    else c
  in
  let c =
    if patch.Api.per_po_budget = None then
      { c with Config.per_po_budget = Float.min c.Config.per_po_budget cap }
    else c
  in
  match Config.validate c with
  | Ok c -> Ok c
  | Error msg -> err Api.code_config "invalid configuration: %s" msg

(* ---------- request handlers ---------- *)

let reject t ~emit ?id d =
  Atomic.incr t.n_rejected;
  Metrics.inc m_rejected;
  emit (Api.error_of_diag ?id d)

let single_po_result circuit cfg (po : Engine.po_result) =
  {
    Engine.circuit_name = circuit.Circuit.name;
    method_used = cfg.Config.method_;
    gate_used = cfg.Config.gate;
    per_po = [| po |];
    n_decomposed = (if po.Engine.partition <> None then 1 else 0);
    total_cpu = po.Engine.cpu;
    diags = [];
  }

let run_decompose t ~emit ~id circuit po cfg =
  let jobs = cfg.Config.jobs in
  if jobs > t.cfg.max_inflight then
    reject t ~emit ~id
      (Diag.error ~code:Api.code_admission
         (Printf.sprintf "request wants %d job slots, server admits at most %d"
            jobs t.cfg.max_inflight))
  else if not (try_reserve t jobs) then
    reject t ~emit ~id
      (Diag.error ~code:Api.code_admission
         (Printf.sprintf "in-flight job slots exhausted (%d of %d in use)"
            (Atomic.get t.slots_used) t.cfg.max_inflight))
  else
    Fun.protect
      ~finally:(fun () -> release t jobs)
      (fun () ->
        match po with
        | Some i when i < 0 || i >= Circuit.n_outputs circuit ->
            reject t ~emit ~id
              (Diag.error ~code:Api.code_config
                 (Printf.sprintf "po %d out of range (circuit has %d outputs)" i
                    (Circuit.n_outputs circuit)))
        | _ ->
            let session = Engine.create ~config:cfg circuit in
            let result =
              match po with
              | None -> Engine.run session
              | Some i -> single_po_result circuit cfg (Engine.decompose_po session i)
            in
            Array.iter
              (fun r -> emit (Api.Po { id; record = Api.po_record_of_result r }))
              result.Engine.per_po;
            emit (Api.Result { id; summary = Api.summary_of_result result }))

(* EINTR-proof: a signal interrupting the sleep must not shorten it —
   the whole point is to model an in-flight request that completes
   during a drain. *)
let sleep_until deadline =
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left > 0. then (
      (try Unix.sleepf (Float.min left 0.05)
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      go ())
  in
  go ()

let handle_admitted t ~emit req =
  match (req : Api.request) with
  | Api.Upload { id; name; format; text } -> (
      match parse_circuit ~format ~text with
      | Error d -> reject t ~emit ~id d
      | Ok c ->
          let c =
            match name with
            | None -> c
            | Some n -> { c with Circuit.name = n }
          in
          let handle = handle_of ~format ~text in
          Mutex.protect t.handles_mu (fun () ->
              Hashtbl.replace t.handles handle c);
          emit
            (Api.Uploaded
               {
                 id;
                 handle;
                 circuit = c.Circuit.name;
                 n_inputs = Circuit.n_inputs c;
                 n_outputs = Circuit.n_outputs c;
                 n_and = Step_aig.Aig.n_ands c.Circuit.aig;
               }))
  | Api.Decompose { id; source; po; patch } -> (
      let circuit =
        match source with
        | Api.Inline { format; text } -> parse_circuit ~format ~text
        | Api.Handle h -> (
            match find_handle t h with
            | Some c -> Ok c
            | None -> err Api.code_unknown_handle "unknown handle %S" h)
      in
      match circuit with
      | Error d -> reject t ~emit ~id d
      | Ok circuit -> (
          match request_config t patch with
          | Error d -> reject t ~emit ~id d
          | Ok cfg -> run_decompose t ~emit ~id circuit po cfg))
  | Api.Get_stats { id } -> emit (Api.Server_stats { id; stats = stats t })
  | Api.Drain { id } ->
      request_drain t ();
      emit (Api.Draining { id })
  | Api.Sleep { id; seconds } ->
      if not (try_reserve t 1) then
        reject t ~emit ~id
          (Diag.error ~code:Api.code_admission
             (Printf.sprintf "in-flight job slots exhausted (%d of %d in use)"
                (Atomic.get t.slots_used) t.cfg.max_inflight))
      else
        Fun.protect
          ~finally:(fun () -> release t 1)
          (fun () ->
            emit (Api.Sleeping { id });
            sleep_until (Unix.gettimeofday () +. seconds);
            emit (Api.Slept { id; seconds }))

let handle_request t ~emit req =
  Atomic.incr t.n_requests;
  Metrics.inc m_requests;
  let id = Api.request_id req in
  let kind = Api.request_kind req in
  Obs.span
    ~attrs:[ ("kind", Json.String kind); ("request", Json.String id) ]
    "server.request"
    (fun () ->
      (* Drain gate: stats stays observable and drain stays idempotent
         while draining; real work is refused. *)
      match req with
      | Api.Get_stats _ | Api.Drain _ -> handle_admitted t ~emit req
      | _ when draining t ->
          reject t ~emit ~id
            (Diag.error ~code:Api.code_draining "server is draining")
      | _ -> (
          try handle_admitted t ~emit req
          with e when not (Retry.fatal e) ->
            reject t ~emit ~id
              (Diag.error ~code:Api.code_internal
                 (Printf.sprintf "request failed: %s" (Printexc.to_string e)))))

let handle_line t ~emit line =
  let emit_r r = emit (Json.to_string (Api.response_to_json r)) in
  if String.trim line <> "" then
    match Api.parse_request_line line with
    | Ok req -> handle_request t ~emit:emit_r req
    | Error (id, d) ->
        Atomic.incr t.n_requests;
        Metrics.inc m_requests;
        reject t ~emit:emit_r ?id d

(* ---------- transports ---------- *)

(* A line reader over a raw fd that wakes up between short [select]
   waits to poll the drain flag — a signal during idle must not leave
   the server blocked in a read until the next client line. *)
type reader = { fd : Unix.file_descr; buf : Buffer.t; mutable eof : bool }

let tick = 0.15

let reader fd = { fd; buf = Buffer.create 4096; eof = false }

let take_line r =
  let s = Buffer.contents r.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
      Buffer.clear r.buf;
      Buffer.add_string r.buf (String.sub s (i + 1) (String.length s - i - 1));
      Some (String.sub s 0 i)

let read_line_poll ~stop r =
  let chunk = Bytes.create 4096 in
  let rec go () =
    match take_line r with
    | Some l -> Some l
    | None ->
        if r.eof || stop () then None
        else
          let readable =
            try
              match Unix.select [ r.fd ] [] [] tick with
              | [], _, _ -> false
              | _ -> true
            with Unix.Unix_error (Unix.EINTR, _, _) -> false
          in
          if readable then (
            let n =
              try Unix.read r.fd chunk 0 (Bytes.length chunk)
              with Unix.Unix_error (Unix.EINTR, _, _) -> -1
            in
            if n = 0 then r.eof <- true
            else if n > 0 then Buffer.add_subbytes r.buf chunk 0 n);
          go ()
  in
  go ()

let write_all fd s =
  let s = s ^ "\n" in
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let serve_fd t ~in_fd ~out_fd =
  let r = reader in_fd in
  let emit s = write_all out_fd s in
  let rec loop () =
    match read_line_poll ~stop:(fun () -> draining t) r with
    | None -> ()
    | Some line ->
        handle_line t ~emit line;
        loop ()
  in
  loop ()

let serve_stdio t =
  serve_fd t ~in_fd:Unix.stdin ~out_fd:Unix.stdout;
  exit_code t

(* Replace [path] only when nothing accepts on it: a refused probe means
   a socket file left behind by a dead server. A live server keeps its
   socket, and the [bind] that follows fails with EADDRINUSE. *)
let remove_stale_socket path =
  let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close probe)
    (fun () ->
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> ()
      | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> (
          try Sys.remove path with Sys_error _ -> ())
      | exception Unix.Unix_error _ -> ())

let serve_socket t ~path =
  remove_stale_socket path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind sock (Unix.ADDR_UNIX path)
   with e ->
     Unix.close sock;
     raise e);
  Unix.listen sock 16;
  (* A client that disconnects mid-response must not kill the server. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* Connections run as pool tasks; [live] counts them so the drain can
     wait for the last one. The first fatal exception in a connection
     drains the server and is re-raised once every connection ended. *)
  let mu = Mutex.create () and ended = Condition.create () in
  let live = ref 0 in
  let fatal = Atomic.make None in
  let connection conn () =
    (try serve_fd t ~in_fd:conn ~out_fd:conn with
    | e when not (Retry.fatal e) -> ()
    | e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set fatal None (Some (e, bt)));
        request_drain t ());
    (try Unix.close conn with Unix.Unix_error _ -> ());
    Mutex.protect mu (fun () ->
        decr live;
        Condition.signal ended)
  in
  (* The pool's cap is the connection cap: with every worker busy the
     connection gets one admission error line and is closed. *)
  let refuse conn =
    (try
       reject t
         ~emit:(fun r -> write_all conn (Json.to_string (Api.response_to_json r)))
         (Diag.error ~code:Api.code_admission
            (Printf.sprintf "connection refused: all %d workers are busy"
               Step_engine.Pool.max_workers))
     with Unix.Unix_error _ -> ());
    try Unix.close conn with Unix.Unix_error _ -> ()
  in
  let rec accept_loop () =
    if not (draining t) then (
      let ready =
        try
          match Unix.select [ sock ] [] [] tick with
          | [], _, _ -> false
          | _ -> true
        with Unix.Unix_error (Unix.EINTR, _, _) -> false
      in
      (if ready then
         match Unix.accept sock with
         | conn, _ ->
             Mutex.protect mu (fun () -> incr live);
             if not (Step_engine.Pool.try_async (connection conn)) then (
               Mutex.protect mu (fun () -> decr live);
               refuse conn)
         | exception
             Unix.Unix_error
               ((Unix.EINTR | Unix.EAGAIN | Unix.ECONNABORTED), _, _) ->
             ()
         (* out of descriptors: keep listening, retry after one tick *)
         | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) -> (
             try Unix.sleepf tick with Unix.Unix_error (Unix.EINTR, _, _) -> ()));
      accept_loop ())
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      accept_loop ();
      Mutex.protect mu (fun () ->
          while !live > 0 do
            Condition.wait ended mu
          done));
  match Atomic.get fatal with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> exit_code t
