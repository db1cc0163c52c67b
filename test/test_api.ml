(* Tests for the versioned wire API: of_json/to_json round-trips are the
   identity at the wire level, strict parsing rejects unknown fields and
   foreign schema versions with stable codes, and config patches land on
   Config.t. *)

module Api = Step_api.Api
module Json = Step_obs.Json
module Diag = Step_lint.Diag
module Gate = Step_core.Gate
module Method = Step_core.Method
module Config = Step_engine.Config
module Retry = Step_engine.Retry

let check = Alcotest.(check string)

let check_bool = Alcotest.(check bool)

(* Round-trips are compared as rendered JSON: [nan] (wire [null]) makes
   structural equality on the records themselves unusable. *)
let rt_request j =
  match Api.request_of_json (Json.of_string j) with
  | Error d -> Alcotest.failf "request rejected: %s" (Diag.to_text d)
  | Ok r -> Json.to_string (Api.request_to_json r)

let rt_response j =
  match Api.response_of_json (Json.of_string j) with
  | Error d -> Alcotest.failf "response rejected: %s" (Diag.to_text d)
  | Ok r -> Json.to_string (Api.response_to_json r)

let expect_reject ~code of_json j =
  match of_json (Json.of_string j) with
  | Ok _ -> Alcotest.failf "expected rejection with %s: %s" code j
  | Error d -> check (j ^ " code") code d.Diag.code

(* ---------- request round-trips ---------- *)

let upload_line =
  {|{"schema_version":1,"type":"upload","id":"u1","name":"tiny","format":"aag","text":"aag 1 1 0 1 0\n2\n2\n"}|}

let decompose_line =
  {|{"schema_version":1,"type":"decompose","id":"d1","circuit":{"format":"blif",|}
  ^ {|"text":".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n"},|}
  ^ {|"po":0,"gate":"and","method":"qdb","per_po_budget":2.5,"total_budget":30,|}
  ^ {|"min_support":3,"jobs":2,"retries":4,"fallback":["qb","mg"],"certify":true,|}
  ^ {|"cache":false,"check_artifacts":true}|}

let handle_line =
  {|{"schema_version":1,"type":"decompose","id":"d2","handle":"c0123456789ab"}|}

let test_request_roundtrip () =
  List.iter
    (fun line -> check line line (rt_request line))
    [
      upload_line;
      handle_line;
      {|{"schema_version":1,"type":"stats","id":"s1"}|};
      {|{"schema_version":1,"type":"drain","id":"q1"}|};
      {|{"schema_version":1,"type":"sleep","id":"z1","seconds":0.25}|};
    ]

(* The decompose round-trip is order-normalizing for patch fields, so
   compare through a second parse: parse -> print -> parse -> print must
   be a fixpoint, and the patch must survive. *)
let test_decompose_roundtrip () =
  let once = rt_request decompose_line in
  check "fixpoint" once (rt_request once);
  match Api.request_of_json (Json.of_string once) with
  | Error d -> Alcotest.failf "re-parse rejected: %s" (Diag.to_text d)
  | Ok (Api.Decompose { po; patch; source = Api.Inline { format; _ }; _ }) ->
      Alcotest.(check (option int)) "po" (Some 0) po;
      check "format" "blif" format;
      check_bool "gate" true (patch.Api.gate = Some Gate.And_gate);
      check_bool "method" true (patch.Api.method_ = Some Method.Qdb);
      check_bool "fallback" true
        (patch.Api.fallback = Some [ Method.Qb; Method.Mg ]);
      check_bool "cache off" true (patch.Api.cache = Some false)
  | Ok _ -> Alcotest.fail "parsed to a different request"

let test_response_roundtrip () =
  List.iter
    (fun line -> check line line (rt_response line))
    [
      {|{"schema_version":1,"type":"uploaded","id":"u1","handle":"cab","circuit":"tiny","n_inputs":2,"n_outputs":1,"n_and":1}|};
      {|{"schema_version":1,"type":"po","id":"d1","record":{"po":"y","support":4,"decomposed":true,"optimal":true,"timed_out":false,"status":"optimal","method":"STEP-QD","attempts":1,"xa":2,"xb":2,"xc":0,"eD":0,"eB":0,"cpu_s":0.125,"cache":"hit","counters":{"qbf_queries":3}}}|};
      {|{"schema_version":1,"type":"po","id":"d1","record":{"po":"y","support":0,"decomposed":false,"optimal":false,"timed_out":true,"status":"timeout","method":"STEP-MG","attempts":2,"xa":0,"xb":0,"xc":0,"eD":null,"eB":null,"cpu_s":0,"degraded":true,"failure":{"error":"boom","attempts":2,"transient":false},"counters":{}}}|};
      {|{"schema_version":1,"type":"result","id":"d1","summary":{"circuit":"tiny","method":"STEP-QD","gate":"AND","n_outputs":1,"n_decomposed":1,"total_cpu_s":0.5,"cache_hits":3,"cache_misses":1,"counters":{"qbf_queries":3}}}|};
      {|{"schema_version":1,"type":"stats","id":"s1","requests":7,"rejected":2,"inflight":1,"handles":1,"cache":{"hits":3,"misses":1,"entries":1}}|};
      {|{"schema_version":1,"type":"draining","id":"q1"}|};
      {|{"schema_version":1,"type":"sleeping","id":"z1"}|};
      {|{"schema_version":1,"type":"slept","id":"z1","seconds":0.25}|};
      {|{"schema_version":1,"type":"error","id":"d9","code":"SRV003","message":"full"}|};
      {|{"schema_version":1,"type":"error","code":"API001","message":"not json"}|};
    ]

(* ---------- strict rejection ---------- *)

let test_reject_bad_version () =
  expect_reject ~code:Api.code_version Api.request_of_json
    {|{"schema_version":2,"type":"stats","id":"s"}|};
  expect_reject ~code:Api.code_version Api.request_of_json
    {|{"type":"stats","id":"s"}|};
  expect_reject ~code:Api.code_version Api.response_of_json
    {|{"schema_version":"1","type":"draining","id":"q"}|}

let test_reject_unknown_field () =
  expect_reject ~code:Api.code_unknown_field Api.request_of_json
    {|{"schema_version":1,"type":"stats","id":"s","verbose":true}|};
  expect_reject ~code:Api.code_unknown_field Api.request_of_json
    ({|{"schema_version":1,"type":"decompose","id":"d",|}
    ^ {|"handle":"cab","buget":1}|});
  expect_reject ~code:Api.code_unknown_field Api.response_of_json
    {|{"schema_version":1,"type":"draining","id":"q","extra":1}|}

let test_reject_unknown_type () =
  expect_reject ~code:Api.code_unknown_type Api.request_of_json
    {|{"schema_version":1,"type":"explode","id":"x"}|};
  expect_reject ~code:Api.code_unknown_type Api.response_of_json
    {|{"schema_version":1,"type":"explode","id":"x"}|}

let test_reject_bad_fields () =
  expect_reject ~code:Api.code_field Api.request_of_json
    {|{"schema_version":1,"type":"upload","id":"u","format":"vhdl","text":""}|};
  expect_reject ~code:Api.code_field Api.request_of_json
    {|{"schema_version":1,"type":"decompose","id":"d"}|};
  expect_reject ~code:Api.code_field Api.request_of_json
    ({|{"schema_version":1,"type":"decompose","id":"d","handle":"cab",|}
    ^ {|"circuit":{"format":"aag","text":""}}|});
  expect_reject ~code:Api.code_field Api.request_of_json
    {|{"schema_version":1,"type":"decompose","id":"d","handle":"cab","gate":"nand"}|};
  expect_reject ~code:Api.code_field Api.request_of_json
    {|{"schema_version":1,"type":"decompose","id":"d","handle":"cab","jobs":"many"}|}

let test_parse_line_salvages_id () =
  (match Api.parse_request_line "not json at all" with
  | Error (None, d) -> check "malformed code" Api.code_malformed d.Diag.code
  | _ -> Alcotest.fail "expected API001 with no id");
  match
    Api.parse_request_line
      {|{"schema_version":1,"type":"stats","id":"s7","bogus":1}|}
  with
  | Error (Some id, d) ->
      check "salvaged id" "s7" id;
      check "code" Api.code_unknown_field d.Diag.code
  | _ -> Alcotest.fail "expected salvaged id"

(* ---------- config patches ---------- *)

let test_apply_patch () =
  let patch =
    {
      Api.empty_patch with
      Api.gate = Some Gate.Xor_gate;
      method_ = Some Method.Qb;
      per_po_budget = Some 1.5;
      jobs = Some 3;
      retries = Some 4;
      fallback = Some [ Method.Mg ];
      certify = Some true;
    }
  in
  let c = Api.apply_patch patch Config.default in
  check_bool "gate" true (c.Config.gate = Gate.Xor_gate);
  check_bool "method" true (c.Config.method_ = Method.Qb);
  check_bool "budget" true (c.Config.per_po_budget = 1.5);
  Alcotest.(check int) "jobs" 3 c.Config.jobs;
  Alcotest.(check int) "retries+1" 5 c.Config.retry.Retry.max_attempts;
  check_bool "fallback" true (c.Config.fallback = [ Method.Mg ]);
  check_bool "certify" true c.Config.certify;
  (* untouched fields inherit the base *)
  check_bool "total untouched" true
    (c.Config.total_budget = Config.default.Config.total_budget);
  (* empty patch is the identity *)
  let id = Api.apply_patch Api.empty_patch Config.default in
  check_bool "empty patch jobs" true (id.Config.jobs = Config.default.Config.jobs);
  check_bool "empty patch gate" true (id.Config.gate = Config.default.Config.gate)

let test_patch_cache_off () =
  let cache = Step_cache.Cache.create () in
  let base = { Config.default with cache = Some cache } in
  let off =
    Api.apply_patch { Api.empty_patch with Api.cache = Some false } base
  in
  check_bool "cache detached" true (off.Config.cache = None);
  let kept =
    Api.apply_patch { Api.empty_patch with Api.cache = Some true } base
  in
  check_bool "cache kept" true (kept.Config.cache <> None)

let () =
  Alcotest.run "api"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "requests" `Quick test_request_roundtrip;
          Alcotest.test_case "decompose fixpoint" `Quick test_decompose_roundtrip;
          Alcotest.test_case "responses" `Quick test_response_roundtrip;
        ] );
      ( "strict",
        [
          Alcotest.test_case "bad version" `Quick test_reject_bad_version;
          Alcotest.test_case "unknown field" `Quick test_reject_unknown_field;
          Alcotest.test_case "unknown type" `Quick test_reject_unknown_type;
          Alcotest.test_case "bad fields" `Quick test_reject_bad_fields;
          Alcotest.test_case "salvaged id" `Quick test_parse_line_salvages_id;
        ] );
      ( "patch",
        [
          Alcotest.test_case "apply" `Quick test_apply_patch;
          Alcotest.test_case "cache off" `Quick test_patch_cache_off;
        ] );
    ]
