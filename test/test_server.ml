(* Engine-level tests for the serve layer, driven through handle_line —
   no transport: admission control, deadline rejection, config
   validation as structured errors, warm-cache hits across sequential
   requests, upload/handle flow, and drain semantics. *)

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
    ]
