(* Tests for the session engine: config validation, the domain pool, and
   the determinism contract — a parallel run must produce exactly the
   same results, in the same order, as a sequential one. *)

module Aig = Step_aig.Aig
module Circuit = Step_aig.Circuit
module Gate = Step_core.Gate
module Method = Step_core.Method
module Partition = Step_core.Partition
module Config = Step_engine.Config
module Engine = Step_engine.Engine
module Pool = Step_engine.Pool
module Retry = Step_engine.Retry
module Fault = Step_fault.Fault

(* same profile as test_pipeline's toy circuit: one OR-, one AND-, one
   XOR-decomposable output plus a parity function *)
let toy_circuit () =
  let m = Aig.create () in
  let xs = Array.init 6 (fun _ -> Aig.fresh_input m) in
  let or_dec = Aig.or_ m (Aig.and_ m xs.(0) xs.(1)) (Aig.and_ m xs.(2) xs.(3)) in
  let and_dec =
    Aig.and_ m (Aig.or_ m xs.(0) xs.(1)) (Aig.or_ m xs.(4) xs.(5))
  in
  let xor_dec = Aig.xor_ m (Aig.and_ m xs.(0) xs.(1)) (Aig.xor_ m xs.(2) xs.(3)) in
  let parity = Aig.xor_list m (Array.to_list xs) in
  Circuit.make ~name:"toy" m
    [ ("ord", or_dec); ("andd", and_dec); ("xord", xor_dec); ("par", parity) ]

(* everything except the cpu timings, which legitimately vary *)
let essence (r : Engine.po_result) =
  ( r.Engine.po_name,
    r.Engine.support_size,
    r.Engine.partition,
    r.Engine.proven_optimal,
    r.Engine.timed_out,
    r.Engine.counters )

(* ---------- Pool ---------- *)

let ok_values outcomes =
  Array.map (function Ok v -> v | Error (e, _) -> raise e) outcomes

let test_pool_map_order () =
  List.iter
    (fun jobs ->
      let r = ok_values (Pool.map_result ~jobs 17 (fun i -> i * i)) in
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d" jobs)
        (Array.init 17 (fun i -> i * i))
        r)
    [ 1; 2; 4; 32 ];
  Alcotest.(check (array int))
    "empty" [||]
    (ok_values (Pool.map_result ~jobs:4 0 (fun i -> i)))

let test_pool_map_exception () =
  (* every failing job keeps its own exception; the jobs after the first
     failure still run *)
  let r =
    Pool.map_result ~jobs:4 8 (fun i ->
        if i >= 3 then failwith (Printf.sprintf "boom%d" i) else i)
  in
  Array.iteri
    (fun i o ->
      let expected =
        if i >= 3 then Error (Printf.sprintf "boom%d" i) else Ok i
      in
      let got =
        match o with
        | Ok v -> Ok v
        | Error (Failure msg, _) -> Error msg
        | Error (e, _) -> Error (Printexc.to_string e)
      in
      Alcotest.(check (result int string))
        (Printf.sprintf "slot %d" i) expected got)
    r

(* The pool's workers persist: a second parallel run takes domains that
   already exist. Domain ids only grow, so a domain the second run
   started would have an id above a fence domain started in between. *)
let domain_id () = (Domain.self () :> int)

let test_pool_reuses_domains () =
  let run () =
    (* every job waits until all three have started, so three distinct
       domains take part *)
    let started = Atomic.make 0 in
    ok_values
      (Pool.map_result ~jobs:3 3 (fun _ ->
           Atomic.incr started;
           let t0 = Unix.gettimeofday () in
           while Atomic.get started < 3 && Unix.gettimeofday () -. t0 < 5.0 do
             Unix.sleepf 0.001
           done;
           domain_id ()))
  in
  let distinct ids = List.length (List.sort_uniq compare (Array.to_list ids)) in
  Alcotest.(check int) "first run on three domains" 3 (distinct (run ()));
  let fence = Domain.join (Domain.spawn domain_id) in
  let second = run () in
  Alcotest.(check int) "second run on three domains" 3 (distinct second);
  Array.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "domain %d existed before the second run" id)
        true (id < fence))
    second;
  (* -j 1 runs inline on the caller *)
  Alcotest.(check (array int))
    "-j 1 inline" (Array.make 4 (domain_id ()))
    (ok_values (Pool.map_result ~jobs:1 4 (fun _ -> domain_id ())))

let test_pool_nested_when_full () =
  let release = Atomic.make false and full = Atomic.make false in
  let nested = Atomic.make None in
  let wait_for flag =
    let t0 = Unix.gettimeofday () in
    while (not (Atomic.get flag)) && Unix.gettimeofday () -. t0 < 10.0 do
      Unix.sleepf 0.001
    done
  in
  let prober () =
    wait_for full;
    let r = Pool.map_result ~jobs:4 8 (fun i -> 2 * i) in
    Atomic.set nested (Some (ok_values r))
  in
  Alcotest.(check bool) "prober accepted" true (Pool.try_async prober);
  (* occupy every other worker; a worker that has just finished a task
     may take a moment to park, hence the second round *)
  let rec fill k =
    if Pool.try_async (fun () -> wait_for release) then fill (k + 1) else k
  in
  let blockers = fill 0 in
  Unix.sleepf 0.05;
  let blockers = blockers + fill 0 in
  Atomic.set full true;
  let t0 = Unix.gettimeofday () in
  while Atomic.get nested = None && Unix.gettimeofday () -. t0 < 10.0 do
    Unix.sleepf 0.001
  done;
  Atomic.set release true;
  Alcotest.(check bool)
    "cap holds" true
    (blockers <= Pool.max_workers - 1);
  Alcotest.(check (option (array int)))
    "nested map completed" (Some (Array.init 8 (fun i -> 2 * i)))
    (Atomic.get nested)

(* A job that raises inside an open span and a fault scope must leave
   nothing behind on the worker: the next traced -j 2 run delivers its
   worker spans as roots (or under its own run span). *)
let test_pool_worker_spans_are_roots () =
  let module Obs = Step_obs.Obs in
  Obs.with_sink (Obs.callback_sink ignore) (fun () ->
      ignore
        (Pool.map_result ~jobs:4 8 (fun i ->
             Obs.span "leaky" (fun () ->
                 Fault.with_scope "stale" (fun () ->
                     if i mod 2 = 0 then failwith "boom" else i)))));
  Alcotest.(check (array string))
    "no stale fault scope" (Array.make 8 "")
    (ok_values (Pool.map_result ~jobs:4 8 (fun _ -> Fault.current_scope ())));
  let records = ref [] in
  let mu = Mutex.create () in
  let sink r = Mutex.protect mu (fun () -> records := r :: !records) in
  let config =
    { Config.default with jobs = 2; trace = Some (Obs.callback_sink sink) }
  in
  ignore (Engine.run (Engine.create ~config (toy_circuit ())));
  let run_id =
    match List.find_opt (fun r -> r.Obs.r_name = "pipeline.run") !records with
    | Some r -> r.Obs.r_id
    | None -> Alcotest.fail "no run span"
  in
  List.iter
    (fun r ->
      if r.Obs.r_name = "engine.attempt" then
        Alcotest.(check bool)
          "attempt span is a root or under the run" true
          (r.Obs.r_parent = None || r.Obs.r_parent = Some run_id))
    !records

(* ---------- Config ---------- *)

let test_config_validation () =
  let ok c = Result.is_ok (Config.validate c) in
  Alcotest.(check bool) "default valid" true (ok Config.default);
  Alcotest.(check bool)
    "jobs=0 rejected" false
    (ok { Config.default with jobs = 0 });
  Alcotest.(check bool)
    "jobs=-3 rejected" false
    (ok { Config.default with jobs = -3 });
  Alcotest.(check bool)
    "negative per-PO budget rejected" false
    (ok { Config.default with per_po_budget = -1.0 });
  Alcotest.(check bool)
    "negative total budget rejected" false
    (ok { Config.default with total_budget = -0.5 });
  Alcotest.(check bool)
    "NaN budget rejected" false
    (ok { Config.default with per_po_budget = nan });
  Alcotest.(check bool)
    "negative min_support rejected" false
    (ok { Config.default with min_support = -1 });
  Alcotest.(check bool)
    "unbounded total budget allowed" true
    (ok { Config.default with total_budget = infinity });
  (* Engine.create enforces validation *)
  match
    Engine.create
      ~config:{ Config.default with jobs = 0 }
      (toy_circuit ())
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "create accepted jobs=0"

(* ---------- naming round-trips ---------- *)

let test_method_roundtrip () =
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Method.to_string m ^ " round-trips")
        true
        (Method.of_string (Method.to_string m) = m);
      (* the CLI-printed names parse too, case-insensitively *)
      Alcotest.(check bool)
        (Method.to_string m ^ " lowercase parses")
        true
        (Method.of_string (String.lowercase_ascii (Method.to_string m)) = m))
    Method.all;
  Alcotest.(check bool)
    "garbage rejected" true
    (Method.of_string_opt "qdx" = None)

let test_gate_roundtrip () =
  List.iter
    (fun g ->
      Alcotest.(check bool)
        (Gate.to_string g ^ " round-trips")
        true
        (Gate.of_string (Gate.to_string g) = g);
      Alcotest.(check bool)
        (Gate.to_string g ^ " lowercase parses")
        true
        (Gate.of_string_opt (String.lowercase_ascii (Gate.to_string g))
        = Some g))
    Gate.all;
  Alcotest.(check bool) "padded name" true (Gate.of_string_opt " XOR " = Some Gate.Xor_gate);
  Alcotest.(check bool) "garbage rejected" true (Gate.of_string_opt "nand" = None)

(* ---------- determinism ---------- *)

let run_with_jobs c method_ gate jobs =
  let config =
    { Config.default with method_; gate; jobs }
  in
  Engine.run (Engine.create ~config c)

let test_parallel_matches_sequential () =
  let c = toy_circuit () in
  List.iter
    (fun method_ ->
      let seq = run_with_jobs c method_ Gate.Or_gate 1 in
      let par = run_with_jobs c method_ Gate.Or_gate 4 in
      Alcotest.(check int)
        (Method.to_string method_ ^ " #Dec identical")
        seq.Engine.n_decomposed par.Engine.n_decomposed;
      Array.iteri
        (fun i sr ->
          let pr = par.Engine.per_po.(i) in
          Alcotest.(check bool)
            (Printf.sprintf "%s po %d identical" (Method.to_string method_) i)
            true
            (essence sr = essence pr))
        seq.Engine.per_po)
    Method.all

let test_auto_parallel_matches_sequential () =
  let c = toy_circuit () in
  let auto jobs =
    let config = { Config.default with jobs } in
    Engine.run_auto (Engine.create ~config c)
  in
  let seq = auto 1 and par = auto 4 in
  Array.iteri
    (fun i (sg, sr) ->
      let pg, pr = par.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "auto po %d same gate" i)
        true (sg = pg);
      Alcotest.(check bool)
        (Printf.sprintf "auto po %d identical" i)
        true
        (essence sr = essence pr))
    seq;
  (* parity decomposes under XOR only — auto must find that *)
  let g_par, r_par = seq.(3) in
  Alcotest.(check bool) "parity gate is XOR" true (g_par = Some Gate.Xor_gate);
  Alcotest.(check bool) "parity decomposed" true (r_par.Engine.partition <> None)

let test_session_does_not_pollute () =
  let c = toy_circuit () in
  let before = Aig.n_nodes c.Circuit.aig in
  List.iter
    (fun jobs -> ignore (run_with_jobs c Method.Qd Gate.Or_gate jobs))
    [ 1; 4 ];
  ignore (Engine.decompose_po (Engine.create c) 0);
  Alcotest.(check int)
    "session circuit manager untouched" before
    (Aig.n_nodes c.Circuit.aig)

let test_total_budget_cancellation () =
  let c = toy_circuit () in
  List.iter
    (fun jobs ->
      let config =
        { Config.default with total_budget = 0.0; jobs }
      in
      let r = Engine.run (Engine.create ~config c) in
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d nothing decomposed" jobs)
        0 r.Engine.n_decomposed;
      Array.iter
        (fun (po : Engine.po_result) ->
          Alcotest.(check bool)
            (po.Engine.po_name ^ " timed out")
            true po.Engine.timed_out)
        r.Engine.per_po)
    [ 1; 4 ]

(* ---------- supervision: fault isolation, retry, degradation ---------- *)

let with_faults text f =
  Fault.configure (Fault.parse_exn text);
  Fun.protect ~finally:Fault.disable f

let test_pool_map_result () =
  List.iter
    (fun jobs ->
      let r =
        Pool.map_result ~jobs 8 (fun i ->
            if i = 2 || i = 5 then failwith (Printf.sprintf "boom%d" i) else i)
      in
      Array.iteri
        (fun i o ->
          match o with
          | Ok v ->
              Alcotest.(check bool)
                (Printf.sprintf "jobs=%d slot %d ok" jobs i)
                true
                (v = i && i <> 2 && i <> 5)
          | Error (Failure msg, _) ->
              Alcotest.(check string)
                (Printf.sprintf "jobs=%d slot %d failure" jobs i)
                (Printf.sprintf "boom%d" i) msg
          | Error _ -> Alcotest.fail "unexpected exception")
        r)
    [ 1; 4 ]

let test_pool_fatal_poisons () =
  Alcotest.check_raises "fatal re-raised" Stdlib.Exit (fun () ->
      ignore
        (Pool.map_result ~fatal:(( = ) Stdlib.Exit) ~jobs:2 6 (fun i ->
             if i = 1 then raise Stdlib.Exit else i)))

let test_fault_isolated_po () =
  let c = toy_circuit () in
  let clean = run_with_jobs c Method.Qd Gate.Or_gate 1 in
  List.iter
    (fun jobs ->
      with_faults "solver.solve@po:0" @@ fun () ->
      let r = run_with_jobs c Method.Qd Gate.Or_gate jobs in
      let injured = r.Engine.per_po.(0) in
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d po 0 failed" jobs)
        "failed"
        (Engine.po_status injured);
      (match injured.Engine.failure with
      | Some f ->
          Alcotest.(check bool)
            "failure names the site" true
            (String.length f.Engine.error > 0
            && f.Engine.attempts >= 1
            && not f.Engine.transient)
      | None -> Alcotest.fail "failed row carries no failure");
      for i = 1 to 3 do
        Alcotest.(check bool)
          (Printf.sprintf "jobs=%d po %d unharmed" jobs i)
          true
          (essence r.Engine.per_po.(i) = essence clean.Engine.per_po.(i))
      done)
    [ 1; 4 ];
  Alcotest.(check string) "scope unwound" "" (Fault.current_scope ())

let test_degraded_fallback () =
  let c = toy_circuit () in
  with_faults "solver.solve@po:0#1" @@ fun () ->
  let config =
    { Config.default with method_ = Method.Qd; fallback = [ Method.Mg ] }
  in
  let r = Engine.run (Engine.create ~config c) in
  let po = r.Engine.per_po.(0) in
  Alcotest.(check string) "status" "degraded" (Engine.po_status po);
  Alcotest.(check bool) "rung recorded" true (po.method_used = Method.Mg);
  Alcotest.(check bool) "partition recovered" true (po.Engine.partition <> None);
  Alcotest.(check int) "two attempts" 2 po.Engine.attempts;
  Alcotest.(check bool)
    "primary failure kept" true
    (po.Engine.failure <> None);
  (* the other outputs never entered the ladder *)
  Array.iteri
    (fun i (po : Engine.po_result) ->
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "po %d not degraded" i)
          false po.Engine.degraded)
    r.Engine.per_po

let test_transient_retry () =
  let c = toy_circuit () in
  let retries = Step_obs.Metrics.counter "engine.retries" in
  let before = Step_obs.Metrics.value retries in
  with_faults "solver.solve@po:0#1!transient" @@ fun () ->
  let config =
    {
      Config.default with
      method_ = Method.Qd;
      retry = { Retry.default with Retry.backoff_base = 0.001 };
    }
  in
  let r = Engine.run (Engine.create ~config c) in
  let po = r.Engine.per_po.(0) in
  Alcotest.(check string) "recovered in place" "optimal" (Engine.po_status po);
  Alcotest.(check int) "two attempts" 2 po.Engine.attempts;
  Alcotest.(check bool) "no failure on success" true (po.Engine.failure = None);
  Alcotest.(check bool)
    "engine.retries bumped" true
    (Step_obs.Metrics.value retries > before)

let test_retry_classify () =
  let t e = Retry.classify e = Retry.Transient in
  Alcotest.(check bool) "Sys_error transient" true (t (Sys_error "x"));
  Alcotest.(check bool) "Out_of_memory transient" true (t Out_of_memory);
  Alcotest.(check bool) "Failure deterministic" false (t (Failure "x"));
  Alcotest.(check bool)
    "injected transient" true
    (t (Fault.Injected { site = "s"; scope = ""; hit = 1; kind = Fault.Transient }));
  Alcotest.(check bool)
    "injected crash deterministic" false
    (t (Fault.Injected { site = "s"; scope = ""; hit = 1; kind = Fault.Crash }));
  Alcotest.(check bool) "Exit fatal" true (Retry.fatal Stdlib.Exit);
  Alcotest.(check bool) "Break fatal" true (Retry.fatal Sys.Break);
  Alcotest.(check bool) "Failure not fatal" false (Retry.fatal (Failure "x"))

let test_retry_delay_deterministic () =
  let p = { Retry.default with Retry.backoff_base = 0.1; seed = 5 } in
  let d1 = Retry.delay p ~scope:"po:1" ~attempt:1 in
  Alcotest.(check (float 0.0)) "stable" d1 (Retry.delay p ~scope:"po:1" ~attempt:1);
  Alcotest.(check bool) "bounded" true (d1 <= p.Retry.backoff_max +. 1e-9);
  Alcotest.(check bool) "positive" true (d1 > 0.0);
  Alcotest.(check bool)
    "scope varies jitter" true
    (Retry.delay p ~scope:"po:2" ~attempt:1 <> d1)

(* a failing job must leave the observability layer balanced: spans
   emitted after the run still nest at depth 0 *)
let test_span_stack_balanced_after_failure () =
  let records = ref [] in
  let mu = Mutex.create () in
  let sink r = Mutex.protect mu (fun () -> records := r :: !records) in
  (with_faults "solver.solve@po:0" @@ fun () ->
   let config =
     {
       Config.default with
       jobs = 4;
       trace = Some (Step_obs.Obs.callback_sink sink);
     }
   in
   ignore (Engine.run (Engine.create ~config (toy_circuit ()))));
  let depth = ref (-1) in
  Step_obs.Obs.with_sink
    (Step_obs.Obs.callback_sink (fun r -> depth := r.Step_obs.Obs.r_depth))
    (fun () -> Step_obs.Obs.span "after.failure" (fun () -> ()));
  Alcotest.(check int) "root depth" 0 !depth

(* ---------- sinks ---------- *)

let test_run_sinks () =
  let records = ref [] in
  let mu = Mutex.create () in
  let sink r = Mutex.protect mu (fun () -> records := r :: !records) in
  let stats = ref "" in
  let config =
    {
      Config.default with
      jobs = 4;
      trace = Some (Step_obs.Obs.callback_sink sink);
      stats = Some (fun s -> stats := s);
    }
  in
  ignore (Engine.run (Engine.create ~config (toy_circuit ())));
  let names = List.map (fun r -> r.Step_obs.Obs.r_name) !records in
  Alcotest.(check int) "one run span" 1
    (List.length (List.filter (( = ) "pipeline.run") names));
  Alcotest.(check int) "one po span per output" 4
    (List.length (List.filter (( = ) "pipeline.po") names));
  Alcotest.(check bool) "stats delivered" true (!stats <> "")

let () =
  Alcotest.run "step_engine"
    [
      ( "pool",
        [
          Alcotest.test_case "map order" `Quick test_pool_map_order;
          Alcotest.test_case "map exception" `Quick test_pool_map_exception;
          Alcotest.test_case "map_result captures" `Quick test_pool_map_result;
          Alcotest.test_case "fatal poisons" `Quick test_pool_fatal_poisons;
          Alcotest.test_case "reuses domains" `Quick test_pool_reuses_domains;
          Alcotest.test_case "nested map when full" `Quick
            test_pool_nested_when_full;
          Alcotest.test_case "worker spans are roots" `Quick
            test_pool_worker_spans_are_roots;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "fault isolated to one po" `Quick
            test_fault_isolated_po;
          Alcotest.test_case "degraded via fallback" `Quick
            test_degraded_fallback;
          Alcotest.test_case "transient retry" `Quick test_transient_retry;
          Alcotest.test_case "classification" `Quick test_retry_classify;
          Alcotest.test_case "delay deterministic" `Quick
            test_retry_delay_deterministic;
          Alcotest.test_case "span stack balanced after failure" `Quick
            test_span_stack_balanced_after_failure;
        ] );
      ( "config",
        [ Alcotest.test_case "validation" `Quick test_config_validation ] );
      ( "naming",
        [
          Alcotest.test_case "method round-trip" `Quick test_method_roundtrip;
          Alcotest.test_case "gate round-trip" `Quick test_gate_roundtrip;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "parallel = sequential" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "auto parallel = sequential" `Quick
            test_auto_parallel_matches_sequential;
          Alcotest.test_case "session circuit untouched" `Quick
            test_session_does_not_pollute;
          Alcotest.test_case "total budget cancels" `Quick
            test_total_budget_cancellation;
        ] );
      ("sinks", [ Alcotest.test_case "trace + stats" `Quick test_run_sinks ]);
    ]
