(* Tests for the serve layer. Most drive handle_line with no transport:
   admission control, deadline rejection, config validation as
   structured errors, warm-cache hits across sequential requests,
   upload/handle flow, and drain semantics. The socket tests run
   serve_socket on a thread of this process and talk to it as clients:
   concurrent connections, the connection cap, drain, socket ownership
   and descriptor exhaustion. *)

module Api = Step_api.Api
module Server = Step_server.Server
module Json = Step_obs.Json
module Config = Step_engine.Config
module Gate = Step_core.Gate

let check = Alcotest.(check string)

let make ?(max_inflight = 4) ?(max_budget = 60.0) ?cache () =
  let base = { Config.default with gate = Gate.And_gate } in
  let base =
    match cache with None -> base | Some c -> { base with cache = Some c }
  in
  Server.create { Server.base; max_inflight; max_budget }

(* Drive one raw request line and parse the responses back through the
   API, so the tests exercise the same wire layer clients use. *)
let drive srv line =
  let out = ref [] in
  Server.handle_line srv ~emit:(fun s -> out := s :: !out) line;
  List.rev_map
    (fun s ->
      match Api.response_of_json (Json.of_string s) with
      | Ok r -> r
      | Error d ->
          Alcotest.failf "server emitted invalid response %s: %s" s
            d.Step_lint.Diag.message)
    !out

let decompose_line ?(id = "d") ?(extra = "") () =
  Printf.sprintf
    {|{"schema_version":1,"type":"decompose","id":"%s","circuit":{"format":"aag","text":"aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n"}%s}|}
    id extra

let expect_error ~code = function
  | [ Api.Error { code = c; _ } ] -> check "error code" code c
  | rs -> Alcotest.failf "expected one %s error, got %d responses" code (List.length rs)

(* ---------- happy path ---------- *)

let test_decompose_inline () =
  let srv = make () in
  match drive srv (decompose_line ()) with
  | [ Api.Po { record; _ }; Api.Result { summary; _ } ] ->
      check "status" "optimal" record.Api.status;
      Alcotest.(check int) "n_decomposed" 1 summary.Api.n_decomposed;
      Alcotest.(check int) "n_outputs" 1 summary.Api.n_outputs
  | rs -> Alcotest.failf "expected po + result, got %d responses" (List.length rs)

let test_upload_then_handle () =
  let srv = make () in
  let upload =
    Printf.sprintf
      {|{"schema_version":1,"type":"upload","id":"u1","name":"tiny","format":"aag","text":"aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n"}|}
  in
  let handle =
    match drive srv upload with
    | [ Api.Uploaded { circuit; n_outputs; handle; _ } ] ->
        check "name" "tiny" circuit;
        Alcotest.(check int) "n_outputs" 1 n_outputs;
        handle
    | _ -> Alcotest.fail "expected uploaded"
  in
  (* the handle is deterministic: re-uploading yields the same one *)
  (match drive srv upload with
  | [ Api.Uploaded { handle = h2; _ } ] -> check "stable handle" handle h2
  | _ -> Alcotest.fail "expected uploaded");
  match
    drive srv
      (Printf.sprintf
         {|{"schema_version":1,"type":"decompose","id":"d1","handle":"%s"}|}
         handle)
  with
  | [ Api.Po _; Api.Result { summary; _ } ] ->
      check "circuit from handle" "tiny" summary.Api.circuit
  | _ -> Alcotest.fail "expected po + result via handle"

let test_unknown_handle () =
  let srv = make () in
  expect_error ~code:Api.code_unknown_handle
    (drive srv
       {|{"schema_version":1,"type":"decompose","id":"d","handle":"c000000000000"}|})

(* ---------- structured errors ---------- *)

let test_validation_error_is_structured () =
  let srv = make () in
  (* jobs=0 fails Config.validate; the connection must survive and give
     a coded error, not an exception *)
  expect_error ~code:Api.code_config
    (drive srv (decompose_line ~extra:{|,"jobs":0|} ()));
  (* and the server still works afterwards *)
  match drive srv (decompose_line ()) with
  | [ Api.Po _; Api.Result _ ] -> ()
  | _ -> Alcotest.fail "server did not survive the validation error"

let test_bad_circuit_is_structured () =
  let srv = make () in
  expect_error ~code:Api.code_bad_circuit
    (drive srv
       {|{"schema_version":1,"type":"decompose","id":"d","circuit":{"format":"aag","text":"garbage"}}|})

let test_po_out_of_range () =
  let srv = make () in
  expect_error ~code:Api.code_config
    (drive srv (decompose_line ~extra:{|,"po":5|} ()))

(* ---------- admission control ---------- *)

let test_admission_over_demand () =
  let srv = make ~max_inflight:2 () in
  expect_error ~code:Api.code_admission
    (drive srv (decompose_line ~extra:{|,"jobs":3|} ()));
  (* a fitting request still goes through *)
  match drive srv (decompose_line ~extra:{|,"jobs":2|} ()) with
  | [ Api.Po _; Api.Result _ ] -> ()
  | _ -> Alcotest.fail "fitting request rejected"

let test_admission_slots_busy () =
  let srv = make ~max_inflight:2 () in
  (* a concurrent request holding slots starves a later one *)
  let started = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        drive srv
          (let _ = Atomic.set started true in
           {|{"schema_version":1,"type":"sleep","id":"z","seconds":0.6}|}))
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  Unix.sleepf 0.2;
  (* 1 of 2 slots held by the sleeper; a 2-slot request must bounce *)
  expect_error ~code:Api.code_admission
    (drive srv (decompose_line ~extra:{|,"jobs":2|} ()));
  (match Domain.join d with
  | [ Api.Sleeping _; Api.Slept _ ] -> ()
  | _ -> Alcotest.fail "sleeper did not complete");
  (* slots released: the same request now passes *)
  match drive srv (decompose_line ~extra:{|,"jobs":2|} ()) with
  | [ Api.Po _; Api.Result _ ] -> ()
  | _ -> Alcotest.fail "slots were not released"

(* ---------- deadlines ---------- *)

let test_deadline_rejection () =
  let srv = make ~max_budget:5.0 () in
  expect_error ~code:Api.code_deadline
    (drive srv (decompose_line ~extra:{|,"total_budget":100|} ()));
  expect_error ~code:Api.code_deadline
    (drive srv (decompose_line ~extra:{|,"per_po_budget":6|} ()));
  (* an explicit budget under the cap is honoured *)
  match drive srv (decompose_line ~extra:{|,"total_budget":4|} ()) with
  | [ Api.Po _; Api.Result _ ] -> ()
  | _ -> Alcotest.fail "in-cap budget rejected"

(* ---------- warm cache ---------- *)

let test_warm_cache_across_requests () =
  let cache = Step_cache.Cache.create () in
  let srv = make ~cache () in
  (match drive srv (decompose_line ~id:"d1" ()) with
  | [ Api.Po { record; _ }; Api.Result { summary; _ } ] ->
      check "first is a miss" "miss" (Option.value ~default:"-" record.Api.cache);
      Alcotest.(check int) "misses" 1 summary.Api.cache_misses
  | _ -> Alcotest.fail "first request failed");
  (match drive srv (decompose_line ~id:"d2" ()) with
  | [ Api.Po { record; _ }; Api.Result { summary; _ } ] ->
      check "second is a hit" "hit" (Option.value ~default:"-" record.Api.cache);
      Alcotest.(check int) "hits" 1 summary.Api.cache_hits;
      Alcotest.(check int) "misses" 0 summary.Api.cache_misses
  | _ -> Alcotest.fail "second request failed");
  match drive srv {|{"schema_version":1,"type":"stats","id":"s"}|} with
  | [ Api.Server_stats { stats; _ } ] -> (
      match stats.Api.cache with
      | Some c ->
          Alcotest.(check int) "server cache hits" 1 c.Api.hits;
          Alcotest.(check int) "server cache entries" 1 c.Api.entries
      | None -> Alcotest.fail "server lost its cache")
  | _ -> Alcotest.fail "stats failed"

(* ---------- drain ---------- *)

let test_drain_rejects_new_work () =
  let srv = make () in
  (match drive srv {|{"schema_version":1,"type":"drain","id":"q"}|} with
  | [ Api.Draining _ ] -> ()
  | _ -> Alcotest.fail "expected draining ack");
  Alcotest.(check bool) "draining" true (Server.draining srv);
  Alcotest.(check int) "drain keeps exit 0" 0 (Server.exit_code srv);
  expect_error ~code:Api.code_draining (drive srv (decompose_line ()));
  (* stats stays observable and drain stays idempotent while draining *)
  (match drive srv {|{"schema_version":1,"type":"stats","id":"s"}|} with
  | [ Api.Server_stats _ ] -> ()
  | _ -> Alcotest.fail "stats refused during drain");
  match drive srv {|{"schema_version":1,"type":"drain","id":"q2"}|} with
  | [ Api.Draining _ ] -> ()
  | _ -> Alcotest.fail "drain not idempotent"

let test_signal_exit_code_wins_once () =
  let srv = make () in
  Server.request_drain srv ~exit_code:143 ();
  Server.request_drain srv ~exit_code:130 ();
  Alcotest.(check int) "first drain code wins" 143 (Server.exit_code srv)

(* ---------- protocol errors counted ---------- *)

let test_rejected_counted_in_stats () =
  let srv = make () in
  expect_error ~code:Api.code_malformed (drive srv "{broken");
  expect_error ~code:Api.code_unknown_type
    (drive srv {|{"schema_version":1,"type":"explode","id":"x"}|});
  match drive srv {|{"schema_version":1,"type":"stats","id":"s"}|} with
  | [ Api.Server_stats { stats; _ } ] ->
      Alcotest.(check int) "requests" 3 stats.Api.requests;
      Alcotest.(check int) "rejected" 2 stats.Api.rejected;
      Alcotest.(check int) "inflight quiesced" 0 stats.Api.inflight
  | _ -> Alcotest.fail "stats failed"

(* ---------- socket transport ---------- *)

let stats_line = {|{"schema_version":1,"type":"stats","id":"s"}|}

let wait_until ?(timeout = 10.0) what p =
  let t0 = Unix.gettimeofday () in
  while not (p ()) do
    if Unix.gettimeofday () -. t0 > timeout then
      Alcotest.failf "timed out waiting for %s" what;
    Unix.sleepf 0.005
  done

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

(* A server that refused the connection may have closed it already; its
   one error line stays readable. *)
let send fd line =
  let s = line ^ "\n" in
  try ignore (Unix.write_substring fd s 0 (String.length s))
  with Unix.Unix_error (Unix.EPIPE, _, _) -> ()

(* One response line, or None at end of stream; fails after 10 s. *)
let recv fd =
  let buf = Buffer.create 256 and b = Bytes.create 1 in
  let rec go () =
    match Unix.select [ fd ] [] [] 10.0 with
    | [], _, _ -> Alcotest.fail "no response within 10 s"
    | _ -> (
        match Unix.read fd b 0 1 with
        | 0 -> if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
        | _ when Bytes.get b 0 = '\n' -> Some (Buffer.contents buf)
        | _ ->
            Buffer.add_bytes buf b;
            go ())
  in
  go ()

let response fd =
  match recv fd with
  | None -> Alcotest.fail "connection closed without a response"
  | Some l -> (
      match Api.response_of_json (Json.of_string l) with
      | Ok r -> r
      | Error _ -> Alcotest.failf "invalid response %s" l)

let expect_stats fd =
  send fd stats_line;
  match response fd with
  | Api.Server_stats _ -> ()
  | _ -> Alcotest.fail "expected a stats response"

(* A stats request or the refusal of a full pool ([SRV003]). *)
let expect_stats_or_refusal fd =
  send fd stats_line;
  match response fd with
  | Api.Server_stats _ -> ()
  | Api.Error { code; _ } -> check "refusal code" Api.code_admission code
  | _ -> Alcotest.fail "expected stats or a refusal"

(* Whether a fresh connection gets its stats request answered. A worker
   that has just ended a connection takes a moment to be free again. *)
let served path =
  match connect path with
  | exception Unix.Unix_error _ -> false
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          send fd stats_line;
          match recv fd with
          | Some l -> (
              match Api.response_of_json (Json.of_string l) with
              | Ok (Api.Server_stats _) -> true
              | _ -> false)
          | None -> false)

(* serve_socket on a thread, once it serves requests; [stop] drains it
   and returns its exit code *)
let start_socket ?(srv = make ()) path =
  let code = Atomic.make None in
  let th =
    Thread.create
      (fun () -> Atomic.set code (Some (Server.serve_socket srv ~path)))
      ()
  in
  wait_until "the server" (fun () -> Atomic.get code = None && served path);
  let stop () =
    Server.request_drain srv ();
    Thread.join th;
    match Atomic.get code with
    | Some c -> c
    | None -> Alcotest.fail "serve_socket raised"
  in
  stop

let test_socket_concurrent () =
  let path = "concurrent.sock" in
  let stop = start_socket path in
  let a = connect path and b = connect path in
  send a {|{"schema_version":1,"type":"sleep","id":"z","seconds":0.5}|};
  (match response a with
  | Api.Sleeping _ -> ()
  | _ -> Alcotest.fail "expected sleeping");
  (* b is answered while a's request is still in flight *)
  expect_stats b;
  (match response a with
  | Api.Slept _ -> ()
  | _ -> Alcotest.fail "expected slept");
  List.iter Unix.close [ a; b ];
  Alcotest.(check int) "exit code" 0 (stop ())

let test_socket_connection_cap () =
  let path = "cap.sock" in
  let stop = start_socket path in
  let idle = List.init 200 (fun _ -> connect path) in
  let c = connect path in
  expect_stats_or_refusal c;
  Alcotest.(check bool) "socket file kept" true (Sys.file_exists path);
  List.iter Unix.close (c :: idle);
  (* the workers come back: a fresh connection is served again *)
  wait_until "a free worker" (fun () -> served path);
  Alcotest.(check int) "exit code" 0 (stop ())

let test_socket_drain () =
  let path = "drain.sock" in
  let srv = make () in
  let stop = start_socket ~srv path in
  let c = connect path in
  send c {|{"schema_version":1,"type":"drain","id":"q"}|};
  (match response c with
  | Api.Draining _ -> ()
  | _ -> Alcotest.fail "expected draining");
  Alcotest.(check int) "exit code" 0 (stop ());
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path);
  Unix.close c

let test_socket_not_stolen () =
  let path = "owned.sock" in
  (* a socket file nothing listens on is stale and gets replaced *)
  let dead = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind dead (Unix.ADDR_UNIX path);
  Unix.close dead;
  let stop = start_socket path in
  (* already draining: should it take the socket, it returns at once *)
  let second = make () in
  Server.request_drain second ();
  (match Server.serve_socket second ~path with
  | _ -> Alcotest.fail "a second server took a live socket"
  | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ());
  Alcotest.(check bool) "socket file kept" true (Sys.file_exists path);
  let c = connect path in
  expect_stats c;
  Unix.close c;
  Alcotest.(check int) "exit code" 0 (stop ())

let test_socket_survives_fd_exhaustion () =
  let path = "fds.sock" in
  let stop = start_socket path in
  let c = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* a process allowed more descriptors than this is not exhausted here *)
  let rec exhaust n acc =
    if n = 0 then (
      List.iter Unix.close acc;
      Unix.close c;
      ignore (stop ());
      Alcotest.skip ())
    else
      match Unix.dup Unix.stdin with
      | fd -> exhaust (n - 1) (fd :: acc)
      | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) -> acc
  in
  let held = exhaust 65536 [] in
  (* the server's accept fails while no descriptor is free *)
  Unix.connect c (Unix.ADDR_UNIX path);
  Unix.sleepf 0.5;
  List.iter Unix.close held;
  expect_stats_or_refusal c;
  Unix.close c;
  wait_until "a served request" (fun () -> served path);
  Alcotest.(check int) "exit code" 0 (stop ())

let () =
  Alcotest.run "server"
    [
      ( "requests",
        [
          Alcotest.test_case "decompose inline" `Quick test_decompose_inline;
          Alcotest.test_case "upload + handle" `Quick test_upload_then_handle;
          Alcotest.test_case "unknown handle" `Quick test_unknown_handle;
        ] );
      ( "errors",
        [
          Alcotest.test_case "validation is structured" `Quick
            test_validation_error_is_structured;
          Alcotest.test_case "bad circuit" `Quick test_bad_circuit_is_structured;
          Alcotest.test_case "po out of range" `Quick test_po_out_of_range;
          Alcotest.test_case "rejected counted" `Quick
            test_rejected_counted_in_stats;
        ] );
      ( "admission",
        [
          Alcotest.test_case "over demand" `Quick test_admission_over_demand;
          Alcotest.test_case "slots busy" `Quick test_admission_slots_busy;
          Alcotest.test_case "deadline cap" `Quick test_deadline_rejection;
        ] );
      ( "state",
        [
          Alcotest.test_case "warm cache" `Quick test_warm_cache_across_requests;
          Alcotest.test_case "drain" `Quick test_drain_rejects_new_work;
          Alcotest.test_case "signal code" `Quick test_signal_exit_code_wins_once;
        ] );
      ( "socket",
        [
          Alcotest.test_case "concurrent connections" `Quick
            test_socket_concurrent;
          Alcotest.test_case "connection cap" `Quick test_socket_connection_cap;
          Alcotest.test_case "drain" `Quick test_socket_drain;
          Alcotest.test_case "live socket not stolen" `Quick
            test_socket_not_stolen;
          Alcotest.test_case "fd exhaustion" `Quick
            test_socket_survives_fd_exhaustion;
        ] );
    ]
