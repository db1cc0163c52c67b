(* step — Satisfiability-based funcTion dEcomPosition (OCaml reimplementation).

   Subcommands:
     step stats      print circuit statistics (#In, #Out, #InM, #And)
     step decompose  bi-decompose the primary outputs of a circuit
     step generate   emit a generated benchmark circuit as BLIF
     step suite      list the named benchmark suite
*)

module Aig = Step_aig.Aig
module Circuit = Step_aig.Circuit
module Blif = Step_aig.Blif
module Aag = Step_aig.Aag
module Gate = Step_core.Gate
module Partition = Step_core.Partition
module Problem = Step_core.Problem
module Method = Step_core.Method
module Engine = Step_engine.Engine
module Config = Step_engine.Config
module Extract = Step_core.Extract
module Verify = Step_core.Verify
module Suite = Step_circuits.Suite
module Generators = Step_circuits.Generators
module Obs = Step_obs.Obs
module Metrics = Step_obs.Metrics
module Profile = Step_obs.Profile
module Trace_summary = Step_obs.Trace_summary
module Json = Step_obs.Json
module Diag = Step_lint.Diag
module Lint = Step_lint.Lint
module Cache = Step_cache.Cache
module Fault = Step_fault.Fault
module Retry = Step_engine.Retry
module Cert = Step_cert.Cert
module Certify = Step_core.Certify

open Cmdliner

(* Flags shared across decompose/report/compare/serve live in one spec
   module so they cannot drift between subcommands. *)
open Cli_flags

(* ---------- stats ---------- *)

let stats_cmd =
  let json_flag =
    let doc = "Emit the statistics as JSON instead of aligned text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run path json =
    let c = load_circuit path in
    let sizes = Circuit.support_sizes c in
    if json then begin
      let po_json i s =
        Json.Obj
          [
            ("po", Json.String (Circuit.output_name c i));
            ("support", Json.Int s);
            ("cone", Json.Int (Aig.cone_size c.Circuit.aig (Circuit.output c i)));
          ]
      in
      let j =
        Json.Obj
          [
            ("circuit", Json.String c.Circuit.name);
            ("n_inputs", Json.Int (Circuit.n_inputs c));
            ("n_outputs", Json.Int (Circuit.n_outputs c));
            ("max_support", Json.Int (Circuit.max_support c));
            ("n_and", Json.Int (Aig.n_ands c.Circuit.aig));
            ( "outputs",
              Json.List (Array.to_list (Array.mapi po_json sizes)) );
          ]
      in
      print_endline (Json.to_string j)
    end
    else begin
      print_endline (Circuit.stats c);
      Array.iteri
        (fun i s ->
          Printf.printf "  %-16s support=%d cone=%d\n"
            (Circuit.output_name c i) s
            (Aig.cone_size c.Circuit.aig (Circuit.output c i)))
        sizes
    end;
    `Ok ()
  in
  let doc = "Print circuit statistics." in
  Cmd.v (Cmd.info "stats" ~doc) Term.(ret (const run $ circuit_arg $ json_flag))

(* ---------- decompose ---------- *)

let extract_arg =
  let doc = "Also derive fA/fB: 'quantify' or 'interpolate'." in
  Arg.(value & opt (some string) None & info [ "extract" ] ~docv:"ENGINE" ~doc)

let verify_flag =
  let doc = "SAT-verify every extracted decomposition." in
  Arg.(value & flag & info [ "verify" ] ~doc)

let recursive_flag =
  let doc =
    "Recursively bi-decompose each output into a gate tree and print its \
     statistics."
  in
  Arg.(value & flag & info [ "recursive"; "r" ] ~doc)

let print_po_result (r : Engine.po_result) =
  let status =
    match Engine.po_status r with
    | "indecomposable" -> "not-decomposable"
    | s -> s
  in
  Printf.printf "%-16s n=%-3d %-16s %6.3fs" r.Engine.po_name
    r.Engine.support_size status r.Engine.cpu;
  (match r.Engine.partition with
  | None -> ()
  | Some part ->
      Printf.printf "  |XA|=%d |XB|=%d |XC|=%d eD=%.3f eB=%.3f"
        (List.length part.Partition.xa)
        (List.length part.Partition.xb)
        (List.length part.Partition.xc)
        (Partition.disjointness part)
        (Partition.balancedness part));
  if r.Engine.degraded then
    Printf.printf "  via %s" (Method.to_string r.method_used);
  (match r.Engine.failure with
  | Some f when not r.Engine.degraded -> Printf.printf "  %s" f.Engine.error
  | _ -> ());
  print_newline ()

let decompose_cmd =
  let run path gate method_ budget jobs po extract verify_ recursive trace
      stats profile deep_stats metrics_out metrics_interval sanitize
      check_artifacts cache no_cache cache_dir faults fallback retries certify
      cert_dir =
    if deep_stats then Metrics.set_deep true;
    let all_diags = ref [] in
    let note_diags diags =
      if diags <> [] then begin
        print_diags diags;
        all_diags := !all_diags @ diags
      end
    in
    let cache_opt = make_cache ~cache ~no_cache ~cache_dir in
    let certify_on = certify || cert_dir <> None in
    Option.iter mkdir_p cert_dir;
    let cert_checked = ref 0 and cert_failed = ref 0 in
    let cert_bytes = ref 0 and cert_secs = ref 0.0 in
    (* Every certificate arrives already self-checked by the engine; here
       it is accounted, its findings surfaced (errors flip the exit code)
       and, under --cert-dir, persisted for later [step certify]. *)
    let note_cert po_name = function
      | None -> ()
      | Some ct ->
          incr cert_checked;
          if not ct.Certify.ok then incr cert_failed;
          cert_bytes := !cert_bytes + ct.Certify.proof_bytes;
          cert_secs := !cert_secs +. ct.Certify.gen_s +. ct.Certify.check_s;
          note_diags ct.Certify.diags;
          Option.iter
            (fun dir -> Cert.save (cert_file dir po_name) ct.Certify.cert)
            cert_dir
    in
    let finish_cert () =
      if certify_on then
        Printf.printf "cert: checked=%d failed=%d proof_bytes=%d time=%.3fs\n"
          !cert_checked !cert_failed !cert_bytes !cert_secs
    in
    let finish_cache () =
      Option.iter print_cache_summary cache_opt;
      finish_cert ()
    in
    let body () =
      apply_sanitize sanitize;
      (match apply_faults faults with
      | Ok () -> ()
      | Error msg -> failwith msg);
      let method_ = Method.of_string method_ in
      let mk_config gate =
        let config =
          supervision_config ~fallback ~retries
            {
              Config.default with
              Config.gate;
              method_;
              per_po_budget = budget;
              check_artifacts;
              jobs;
              cache = cache_opt;
              certify = certify_on;
            }
        in
        match Config.validate config with
        | Ok config -> config
        | Error msg -> failwith msg
      in
      (* validate budgets/jobs up front so every path reports bad flags *)
      let base_config = mk_config Config.default.Config.gate in
      let c = load_circuit path in
      Option.iter (check_po c) po;
      if check_artifacts then note_diags (Engine.lint_circuit c);
      if recursive then begin
        let module R = Step_core.Recursive in
        let config =
          { R.default_config with R.method_; per_step_budget = budget }
        in
        let outputs =
          match po with
          | Some i -> [ i ]
          | None -> List.init (Circuit.n_outputs c) Fun.id
        in
        List.iter
          (fun i ->
            let p = Problem.of_output c i in
            if Problem.n_vars p >= 2 then begin
              let tree = R.decompose ~config p in
              let s = R.stats_of c.Circuit.aig tree in
              Printf.printf
                "%-16s n=%-3d gates=%-3d leaves=%-3d depth=%-2d \
                 max-leaf-support=%d\n"
                (Circuit.output_name c i) (Problem.n_vars p) s.R.gates
                s.R.leaves s.R.depth s.R.max_leaf_support
            end)
          outputs;
        raise Exit
      end;
      if String.lowercase_ascii (String.trim gate) = "auto" then begin
        (* per-output gate selection *)
        let eng = Engine.create ~config:base_config c in
        List.iter
          (fun (g, r) ->
            (match g with
            | Some g -> Printf.printf "[%s] " (Gate.to_string g)
            | None -> Printf.printf "[-]   ");
            print_po_result r;
            note_diags r.Engine.diags;
            note_cert r.Engine.po_name r.Engine.certificate)
          (match po with
          | Some i -> [ Engine.decompose_po_auto eng i ]
          | None -> Array.to_list (Engine.run_auto eng));
        finish_cache ();
        raise Exit
      end;
      let gate = Gate.of_string gate in
      let eng = Engine.create ~config:(mk_config gate) c in
      let engine =
        Option.map
          (fun e ->
            match String.lowercase_ascii e with
            | "quantify" | "q" -> Extract.Quantify
            | "interpolate" | "interp" | "i" -> Extract.Interpolate
            | other -> failwith (Printf.sprintf "unknown engine %S" other))
          extract
      in
      let handle_po (r : Engine.po_result) =
        print_po_result r;
        note_diags r.Engine.diags;
        match (r.Engine.partition, engine) with
        | Some part, Some engine ->
            let p =
              Problem.of_edge c.Circuit.aig
                (Circuit.find_output c r.Engine.po_name)
            in
            let e = Extract.run ~engine p gate part in
            Printf.printf "  fA cone=%d fB cone=%d"
              (Aig.cone_size c.Circuit.aig e.Extract.fa)
              (Aig.cone_size c.Circuit.aig e.Extract.fb);
            if verify_ then
              Printf.printf " verified=%b"
                (Verify.decomposition p gate part ~fa:e.Extract.fa
                   ~fb:e.Extract.fb);
            print_newline ();
            (* extraction happened: extend the certificate with the
               proof-carrying fA/fB equivalence miter before accounting *)
            let cert_with_equiv =
              match r.Engine.certificate with
              | Some ct -> (
                  match
                    Certify.equivalence_obligation p gate ~fa:e.Extract.fa
                      ~fb:e.Extract.fb
                  with
                  | Some ob -> Some (Certify.add_obligation ct ob)
                  | None -> Some ct)
              | None -> None
            in
            note_cert r.Engine.po_name cert_with_equiv
        | _, _ -> note_cert r.Engine.po_name r.Engine.certificate
      in
      (match po with
      | Some i -> handle_po (Engine.decompose_po eng i)
      | None ->
          let r = Engine.run eng in
          (* circuit-level diags were already printed by the upfront lint *)
          Array.iter handle_po r.Engine.per_po;
          Printf.printf "== %s %s %s: #Dec=%d/%d CPU=%.2fs\n"
            r.Engine.circuit_name
            (Method.to_string r.method_used)
            (Gate.to_string r.Engine.gate_used)
            r.Engine.n_decomposed
            (Array.length r.Engine.per_po)
            r.Engine.total_cpu);
      finish_cache ()
    in
    let prof = if profile then Some (Profile.collector ()) else None in
    let prof_sink =
      match prof with Some (s, _) -> s | None -> Obs.null_sink
    in
    let traced () =
      match trace with
      | Some file ->
          let oc = open_out file in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () ->
              Obs.with_sink (Obs.tee_sink (Obs.jsonl_sink oc) prof_sink) body)
      | None ->
          if profile then Obs.with_sink prof_sink body else body ()
    in
    (* Periodic exposition runs on its own thread; the final snapshot is
       published on every exit path, including errors. *)
    let stop_dump =
      match metrics_out with
      | Some path when metrics_interval > 0.0 ->
          Some
            (Metrics.start_periodic_dump ~path ~interval_s:metrics_interval
               ~format:(metrics_format path) ())
      | _ -> None
    in
    let finish_metrics () =
      match (stop_dump, metrics_out) with
      | Some stop, _ -> stop ()
      | None, Some path -> Metrics.dump_file ~format:(metrics_format path) path
      | None, None -> ()
    in
    let traced () = Fun.protect ~finally:finish_metrics traced in
    let finish_stats () = if stats then print_string (Metrics.render ()) in
    let finish_profile () =
      match prof with
      | Some (_, get) -> print_string (Profile.render (get ()))
      | None -> ()
    in
    match traced () with
    | () | exception Exit ->
        finish_profile ();
        finish_stats ();
        if Diag.has_errors !all_diags then exit 1 else `Ok ()
    | exception Step_sat.Solver.Sanitizer_violation diags ->
        print_diags diags;
        `Error (false, "solver sanitizer detected invariant violations")
    | exception Failure msg -> `Error (false, msg)
    | exception Sys_error msg -> `Error (false, msg)
  in
  let doc = "Bi-decompose the primary outputs of a circuit." in
  Cmd.v
    (Cmd.info "decompose" ~doc)
    Term.(
      ret
        (const run $ circuit_arg $ gate_arg $ method_arg $ budget_arg
       $ jobs_arg $ po_arg $ extract_arg $ verify_flag $ recursive_flag
       $ trace_arg $ stats_flag $ profile_flag $ deep_stats_flag
       $ metrics_out_arg $ metrics_interval_arg $ sanitize_flag
       $ check_artifacts_flag $ cache_flag $ no_cache_flag $ cache_dir_arg
       $ faults_arg $ fallback_arg $ retries_arg $ certify_flag
       $ cert_dir_arg))

(* ---------- trace ---------- *)

let trace_cmd =
  let file_arg =
    let doc = "JSONL trace file written by $(b,step decompose --trace)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let file2_arg =
    let doc = "Second trace: compare $(i,FILE) (baseline) against it." in
    Arg.(value & pos 1 (some file) None & info [] ~docv:"FILE2" ~doc)
  in
  let diff_flag =
    let doc =
      "Diff two traces span by span: count and self-time deltas, rows \
       over the threshold marked with '!'. Baseline first."
    in
    Arg.(value & flag & info [ "diff" ] ~doc)
  in
  let flame_flag =
    let doc =
      "Emit folded stacks (flamegraph.pl / speedscope input) instead of \
       the summary table."
    in
    Arg.(value & flag & info [ "flame" ] ~doc)
  in
  let hot_flag =
    let doc = "Rank call paths by self time instead of the summary table." in
    Arg.(value & flag & info [ "hot" ] ~doc)
  in
  let threshold_arg =
    let doc = "Relative self-time change marking a diff row significant." in
    Arg.(value & opt float 0.10 & info [ "threshold" ] ~docv:"FRACTION" ~doc)
  in
  let run file file2 diff flame hot threshold =
    try
      match file2 with
      | Some f2 ->
          let base = Trace_summary.of_file file in
          let cur = Trace_summary.of_file f2 in
          let text, _ = Trace_summary.diff ~threshold base cur in
          print_string text;
          `Ok ()
      | None ->
          if diff then
            `Error (true, "trace --diff needs two trace files: BASELINE CURRENT")
          else begin
            if flame then print_string (Profile.to_folded (Profile.of_file file))
            else if hot then
              print_string (Profile.render_hot (Profile.of_file file))
            else print_string (Trace_summary.render (Trace_summary.of_file file));
            `Ok ()
          end
    with
    | Failure msg -> `Error (false, msg)
    | Sys_error msg -> `Error (false, msg)
  in
  let doc =
    "Summarise a JSONL trace into a hot-path breakdown, or diff two traces."
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      ret
        (const run $ file_arg $ file2_arg $ diff_flag $ flame_flag $ hot_flag
       $ threshold_arg))

(* ---------- profile ---------- *)

let profile_cmd =
  let file_arg =
    let doc = "JSONL trace file written by $(b,step decompose --trace)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc)
  in
  let folded_flag =
    let doc = "Emit folded stacks (flamegraph.pl / speedscope input)." in
    Arg.(value & flag & info [ "folded"; "flame" ] ~doc)
  in
  let hot_flag =
    let doc = "Flatten to call paths ranked by self time." in
    Arg.(value & flag & info [ "hot" ] ~doc)
  in
  let max_depth_arg =
    let doc = "Truncate the call tree below $(docv) levels." in
    Arg.(value & opt (some int) None & info [ "max-depth" ] ~docv:"DEPTH" ~doc)
  in
  let run file folded hot max_depth =
    match Profile.of_file file with
    | p ->
        if folded then print_string (Profile.to_folded p)
        else if hot then print_string (Profile.render_hot p)
        else print_string (Profile.render ?max_depth p);
        `Ok ()
    | exception Failure msg -> `Error (false, msg)
    | exception Sys_error msg -> `Error (false, msg)
  in
  let doc =
    "Aggregate a JSONL trace into a hierarchical hotpath profile \
     (per-call-path counts, total and self time, wall-clock attribution)."
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(ret (const run $ file_arg $ folded_flag $ hot_flag $ max_depth_arg))

(* ---------- report / compare / convert ---------- *)

let report_cmd =
  let format_arg =
    let doc = "Output format: text, csv, markdown, json." in
    Arg.(value & opt string "text" & info [ "format"; "f" ] ~docv:"FMT" ~doc)
  in
  let run path gate method_ budget jobs format cache no_cache cache_dir faults
      fallback retries certify =
    match
      (match apply_faults faults with
      | Ok () -> ()
      | Error msg -> failwith msg);
      let gate = Gate.of_string gate in
      let method_ = Method.of_string method_ in
      let c = load_circuit path in
      let cache_opt = make_cache ~cache ~no_cache ~cache_dir in
      let config =
        match
          Config.validate
            (supervision_config ~fallback ~retries
               {
                 Config.default with
                 Config.gate;
                 method_;
                 per_po_budget = budget;
                 jobs;
                 cache = cache_opt;
                 certify;
               })
        with
        | Ok config -> config
        | Error msg -> failwith msg
      in
      let r = Engine.run (Engine.create ~config c) in
      let text =
        match String.lowercase_ascii format with
        | "text" -> Step_engine.Report.to_text r
        | "csv" -> Step_engine.Report.to_csv r
        | "markdown" | "md" -> Step_engine.Report.to_markdown r
        | "json" -> Json.to_string (Step_api.Api.run_to_json r) ^ "\n"
        | other -> failwith (Printf.sprintf "unknown format %S" other)
      in
      print_string text;
      (* the report body carries the hit/miss columns; only the disk-layer
         diagnostics are emitted here, to stderr, so csv stays parseable *)
      Option.iter print_cache_diags cache_opt
    with
    | () -> `Ok ()
    | exception Failure msg -> `Error (false, msg)
  in
  let doc = "Decompose a circuit and render a structured report." in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(
      ret (const run $ circuit_arg $ gate_arg $ method_arg $ budget_arg
         $ jobs_arg $ format_arg $ cache_flag $ no_cache_flag $ cache_dir_arg
         $ faults_arg $ fallback_arg $ retries_arg $ certify_flag))

let compare_cmd =
  let baseline_arg =
    let doc = "Baseline method." in
    Arg.(value & opt string "mg" & info [ "baseline" ] ~docv:"METHOD" ~doc)
  in
  let metric_arg =
    let doc = "Metric: disjointness, balancedness, cost." in
    Arg.(value & opt string "disjointness" & info [ "metric" ] ~docv:"M" ~doc)
  in
  let run path gate method_ budget jobs baseline metric cache no_cache
      cache_dir =
    match
      let gate = Gate.of_string gate in
      let c = load_circuit path in
      (* one cache shared by challenger and baseline: the method is part of
         the key, so they never cross-contaminate, but repeated cones within
         each run still hit *)
      let cache_opt = make_cache ~cache ~no_cache ~cache_dir in
      let run_method m =
        let config =
          match
            Config.validate
              {
                Config.default with
                Config.gate;
                method_ = Method.of_string m;
                per_po_budget = budget;
                jobs;
                cache = cache_opt;
              }
          with
          | Ok config -> config
          | Error msg -> failwith msg
        in
        Engine.run (Engine.create ~config c)
      in
      let challenger = run_method method_ in
      let baseline = run_method baseline in
      let metric =
        match String.lowercase_ascii metric with
        | "disjointness" | "ed" -> Partition.disjointness
        | "balancedness" | "eb" -> Partition.balancedness
        | "cost" | "sum" -> fun p -> Partition.cost p
        | other -> failwith (Printf.sprintf "unknown metric %S" other)
      in
      print_string (Step_engine.Report.compare_table ~baseline ~challenger ~metric);
      Option.iter print_cache_diags cache_opt
    with
    | () -> `Ok ()
    | exception Failure msg -> `Error (false, msg)
  in
  let doc = "Compare two partitioning methods on a circuit, per output." in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(
      ret (const run $ circuit_arg $ gate_arg $ method_arg $ budget_arg
         $ jobs_arg $ baseline_arg $ metric_arg $ cache_flag $ no_cache_flag
         $ cache_dir_arg))

let convert_cmd =
  let out_arg =
    let doc = "Output file; the extension (.blif or .aag) picks the format." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUT" ~doc)
  in
  let run path out =
    match
      let c = load_circuit path in
      if Filename.check_suffix out ".aag" then Aag.write_file out c
      else if Filename.check_suffix out ".aig" then
        Step_aig.Aig_bin.write_file out c
      else if Filename.check_suffix out ".blif" then Blif.write_file out c
      else failwith "output must end in .blif, .aag or .aig"
    with
    | () -> `Ok ()
    | exception Failure msg -> `Error (false, msg)
  in
  let doc = "Convert circuits between BLIF and ASCII AIGER." in
  Cmd.v (Cmd.info "convert" ~doc) Term.(ret (const run $ circuit_arg $ out_arg))

(* ---------- generate ---------- *)

let generate_cmd =
  let kind_arg =
    let doc = "Generator: adder, multiplier, comparator, parity, mux, decoder, alu, random, planted." in
    Arg.(value & opt string "adder" & info [ "kind"; "k" ] ~docv:"KIND" ~doc)
  in
  let size_arg =
    let doc = "Size parameter." in
    Arg.(value & opt int 4 & info [ "n" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "Seed for randomized generators." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let out_arg =
    let doc = "Output BLIF file ('-' for stdout)." in
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run kind n seed out =
    match
      let c =
        match String.lowercase_ascii kind with
        | "adder" -> Generators.ripple_adder n
        | "multiplier" | "mul" -> Generators.multiplier n
        | "comparator" | "cmp" -> Generators.comparator n
        | "parity" -> Generators.parity n
        | "mux" -> Generators.mux_tree n
        | "decoder" -> Generators.decoder n
        | "alu" -> Generators.alu n
        | "random" ->
            Generators.random_dag ~seed ~n_inputs:n ~n_gates:(4 * n)
              ~n_outputs:(max 1 (n / 2))
        | "planted" ->
            (Generators.planted_cone ~seed ~na:(n / 3) ~nb:(n / 3)
               ~nc:(n - (2 * (n / 3)))
               Gate.Or_gate)
              .Generators.circuit
        | other -> failwith (Printf.sprintf "unknown generator %S" other)
      in
      let text = Blif.to_string c in
      if out = "-" then print_string text
      else begin
        let oc = open_out out in
        output_string oc text;
        close_out oc
      end
    with
    | () -> `Ok ()
    | exception Failure msg -> `Error (false, msg)
  in
  let doc = "Generate a benchmark circuit and write it as BLIF." in
  Cmd.v
    (Cmd.info "generate" ~doc)
    Term.(ret (const run $ kind_arg $ size_arg $ seed_arg $ out_arg))

(* ---------- sat / qbf ---------- *)

let sat_cmd =
  let file_arg =
    let doc = "DIMACS CNF file." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let drat_flag =
    let doc = "On UNSAT, emit a DRAT certificate and self-check it." in
    Arg.(value & flag & info [ "drat" ] ~doc)
  in
  let run file drat sanitize =
    apply_sanitize sanitize;
    let cnf, parse_diags = Step_sat.Dimacs.parse_file_diags file in
    List.iter (fun d -> prerr_endline (Diag.to_text d)) parse_diags;
    let solver = Step_sat.Solver.create ~proof:drat () in
    ignore (Step_sat.Dimacs.load_into solver cnf);
    if Step_sat.Solver.solve solver then begin
      print_endline "s SATISFIABLE";
      let values =
        List.init (Step_sat.Solver.n_vars solver) (fun v ->
            let l = Step_sat.Lit.pos v in
            Step_sat.Lit.to_string
              (if Step_sat.Solver.model_value solver l then l
               else Step_sat.Lit.negate l))
      in
      Printf.printf "v %s 0\n" (String.concat " " values)
    end
    else begin
      print_endline "s UNSATISFIABLE";
      if drat then begin
        let trace = Step_sat.Drat.export solver in
        let ok =
          Step_sat.Drat.check ~cnf:cnf.Step_sat.Dimacs.clauses ~trace
        in
        Printf.printf "c DRAT certificate: %d clauses, self-check %s\n"
          (List.length trace)
          (if ok then "PASSED" else "FAILED");
        print_string (Step_sat.Drat.export_string solver)
      end
    end;
    `Ok ()
  in
  let doc = "Solve a DIMACS CNF file with the built-in CDCL solver." in
  Cmd.v (Cmd.info "sat" ~doc)
    Term.(ret (const run $ file_arg $ drat_flag $ sanitize_flag))

let qbf_cmd =
  let file_arg =
    let doc = "QDIMACS file (at most two quantifier levels)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let run file =
    match
      let q = Step_qbf.Qdimacs.parse_file file in
      match Step_qbf.Qdimacs.solve q with
      | Step_qbf.Qdimacs.True -> print_endline "s cnf 1 (TRUE)"
      | Step_qbf.Qdimacs.False -> print_endline "s cnf 0 (FALSE)"
      | Step_qbf.Qdimacs.Unknown -> print_endline "s cnf -1 (UNKNOWN)"
    with
    | () -> `Ok ()
    | exception Failure msg -> `Error (false, msg)
  in
  let doc = "Decide a 2QBF QDIMACS formula with the CEGAR engine." in
  Cmd.v (Cmd.info "qbf" ~doc) Term.(ret (const run $ file_arg))

let export_qbf_cmd =
  let po_arg =
    let doc = "Primary-output index to export." in
    Arg.(value & opt int 0 & info [ "po" ] ~docv:"INDEX" ~doc)
  in
  let k_arg =
    let doc = "Target bound k (default: loosest, n-2)." in
    Arg.(value & opt (some int) None & info [ "bound"; "k" ] ~docv:"K" ~doc)
  in
  let target_arg =
    let doc = "Target: disjointness, balancedness, combined." in
    Arg.(value & opt string "disjointness" & info [ "target" ] ~docv:"T" ~doc)
  in
  let out_arg =
    let doc = "Output QDIMACS file ('-' for stdout)." in
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let check_flag =
    let doc =
      "Lint the exported QDIMACS before writing it (findings go to stderr; \
       exits non-zero on lint errors)."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let run path po k target out check =
    match
      let c = load_circuit path in
      check_po c po;
      let p = Problem.of_edge c.Circuit.aig (Circuit.output c po) in
      let target =
        match String.lowercase_ascii target with
        | "disjointness" | "qd" -> Step_core.Qbf_model.Disjointness
        | "balancedness" | "qb" -> Step_core.Qbf_model.Balancedness
        | "combined" | "qdb" -> Step_core.Qbf_model.Combined
        | other -> failwith (Printf.sprintf "unknown target %S" other)
      in
      let text = Step_core.Qbf_export.or_model ?k ~target p in
      if check then begin
        let name = if out = "-" then "<export>" else out in
        let diags = Step_core.Qbf_export.lint ~name text in
        List.iter (fun d -> prerr_endline (Diag.to_text d)) diags;
        if Diag.has_errors diags then failwith "exported QDIMACS has lint errors"
      end;
      if out = "-" then print_string text
      else begin
        let oc = open_out out in
        output_string oc text;
        close_out oc
      end
    with
    | () -> `Ok ()
    | exception Failure msg -> `Error (false, msg)
  in
  let doc =
    "Export the paper's negated QBF model (9) for one output as QDIMACS."
  in
  Cmd.v (Cmd.info "export-qbf" ~doc)
    Term.(
      ret
        (const run $ circuit_arg $ po_arg $ k_arg $ target_arg $ out_arg
       $ check_flag))

(* ---------- certify ---------- *)

let certify_cmd =
  let paths_arg =
    let doc =
      "Certificate files ($(b,*.cert.json)) or directories containing them \
       (e.g. a $(b,--cert-dir) from $(b,step decompose))."
    in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"PATH" ~doc)
  in
  let quiet_flag =
    let doc = "Only print failures and the final summary." in
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc)
  in
  let collect path =
    match Sys.is_directory path with
    | true ->
        Sys.readdir path |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".cert.json")
        |> List.sort compare
        |> List.map (Filename.concat path)
    | false -> [ path ]
    | exception Sys_error _ -> [ path ]
  in
  let run paths quiet =
    let files = List.concat_map collect paths in
    if files = [] then `Error (false, "no *.cert.json files found")
    else begin
      let checked = ref 0 and failed = ref 0 and unreadable = ref 0 in
      List.iter
        (fun file ->
          match Cert.load file with
          | Error msg ->
              incr unreadable;
              Printf.eprintf "%s: unreadable: %s\n" file msg
          | Ok c ->
              incr checked;
              let diags = Cert.check ~file c in
              if Diag.has_errors diags then begin
                incr failed;
                print_diags diags;
                Printf.printf "%s: FAIL (po %s)\n" file c.Cert.po
              end
              else if not quiet then
                Printf.printf "%s: ok (po %s, %d obligations, %d proof bytes)\n"
                  file c.Cert.po
                  (List.length c.Cert.obligations)
                  (Cert.proof_bytes c))
        files;
      Printf.printf "certify: checked=%d failed=%d unreadable=%d\n" !checked
        !failed !unreadable;
      if !failed > 0 then exit 1
      else if !unreadable > 0 then exit 2
      else `Ok ()
    end
  in
  let doc =
    "Independently re-validate decomposition certificates (LRAT/DRAT proofs, \
     SAT witnesses) written by $(b,step decompose --cert-dir)."
  in
  Cmd.v (Cmd.info "certify" ~doc) Term.(ret (const run $ paths_arg $ quiet_flag))

(* ---------- lint ---------- *)

let lint_cmd =
  let files_arg =
    let doc =
      "Artifact files to lint: .cnf/.dimacs, .qdimacs/.qdm, .blif, .aag, \
       .drat/.lrat proofs, or binary .aig."
    in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE" ~doc)
  in
  let json_flag =
    let doc = "Emit the findings as JSON instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let strict_flag =
    let doc = "Treat warnings as errors for the exit code." in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  (* Binary AIGER has no textual scanner: parse it and lint the in-memory
     AIG instead. Everything else goes through the lint dispatcher. *)
  let lint_one path =
    if Filename.check_suffix path ".aig" then
      match Step_aig.Aig_bin.parse_file path with
      | c -> List.map (Diag.with_file path) (Engine.lint_circuit c)
      | exception Failure msg -> [ Diag.error ~file:path ~code:"IO001" msg ]
      | exception Sys_error msg -> [ Diag.error ~file:path ~code:"IO001" msg ]
    else Lint.lint_file path
  in
  let run files json strict =
    let results = List.map (fun f -> (f, lint_one f)) files in
    let all = List.concat_map snd results in
    if json then begin
      let file_json (f, ds) =
        Json.Obj
          [ ("file", Json.String f); ("diagnostics", Diag.list_to_json ds) ]
      in
      let j =
        Json.Obj
          [
            ("files", Json.List (List.map file_json results));
            ("errors", Json.Int (Diag.count_errors all));
            ("warnings", Json.Int (Diag.count_warnings all));
          ]
      in
      print_endline (Json.to_string j)
    end
    else begin
      List.iter
        (fun (f, ds) ->
          if ds = [] then Printf.printf "%s: clean\n" f else print_diags ds)
        results;
      if List.length files > 1 || all <> [] then
        print_endline (Diag.summary all)
    end;
    if Diag.has_errors all || (strict && Diag.count_warnings all > 0) then
      exit 1
    else `Ok ()
  in
  let doc = "Lint artifact files (CNF, QDIMACS, BLIF, AIGER)." in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(ret (const run $ files_arg $ json_flag $ strict_flag))

(* ---------- serve ---------- *)

let serve_cmd =
  let socket_arg =
    let doc =
      "Listen on a Unix domain socket at $(docv) (one worker domain per \
       connection). Without it the server speaks JSON-lines on \
       stdin/stdout — the scriptable transport."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let max_inflight_arg =
    let doc =
      "Admission-control pool: per-PO job slots shared by all clients. A \
       decompose request reserves its $(b,--jobs) worth of slots for its \
       whole run; requests that cannot get them are rejected with a \
       structured error instead of queueing."
    in
    Arg.(value & opt int 4 & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let max_budget_arg =
    let doc =
      "Per-request deadline cap in seconds: requested budgets above it \
       are rejected, unspecified budgets are clamped down to it."
    in
    Arg.(value & opt float 300.0 & info [ "max-budget" ] ~docv:"SECONDS" ~doc)
  in
  let run socket max_inflight max_budget gate method_ budget jobs trace stats
      deep_stats metrics_out metrics_interval sanitize check_artifacts
      no_cache cache_dir faults fallback retries certify =
    match
      if deep_stats then Metrics.set_deep true;
      apply_sanitize sanitize;
      (match apply_faults faults with
      | Ok () -> ()
      | Error msg -> failwith msg);
      let gate = Gate.of_string gate in
      let method_ = Method.of_string method_ in
      (* The point of a daemon is the warm cache: on unless --no-cache. *)
      let cache_opt =
        make_cache ~cache:(not no_cache) ~no_cache ~cache_dir
      in
      let config =
        match
          Config.validate
            (supervision_config ~fallback ~retries
               {
                 Config.default with
                 Config.gate;
                 method_;
                 per_po_budget = budget;
                 check_artifacts;
                 jobs;
                 cache = cache_opt;
                 certify;
               })
        with
        | Ok config -> config
        | Error msg -> failwith msg
      in
      let srv =
        Step_server.Server.create
          { Step_server.Server.base = config; max_inflight; max_budget }
      in
      (* Replace the CLI's raise-Sys.Break handlers: a signal must not
         interrupt an in-flight request, it must start a drain — the
         serve loop completes current work, flushes sinks and returns,
         and the process exits with the conventional 128+signal code. *)
      Sys.catch_break false;
      let drain_on signal code =
        try
          Sys.set_signal signal
            (Sys.Signal_handle
               (fun _ ->
                 Step_server.Server.request_drain srv ~exit_code:code ()))
        with Invalid_argument _ | Sys_error _ -> ()
      in
      drain_on Sys.sigint 130;
      drain_on Sys.sigterm 143;
      let stop_dump =
        match metrics_out with
        | Some path when metrics_interval > 0.0 ->
            Some
              (Metrics.start_periodic_dump ~path ~interval_s:metrics_interval
                 ~format:(metrics_format path) ())
        | _ -> None
      in
      let finish_metrics () =
        match (stop_dump, metrics_out) with
        | Some stop, _ -> stop ()
        | None, Some path -> Metrics.dump_file ~format:(metrics_format path) path
        | None, None -> ()
      in
      let body () =
        match socket with
        | None -> Step_server.Server.serve_stdio srv
        | Some path -> Step_server.Server.serve_socket srv ~path
      in
      let traced () =
        match trace with
        | Some file ->
            let oc = open_out file in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () -> Obs.with_sink (Obs.jsonl_sink oc) body)
        | None -> body ()
      in
      let code = Fun.protect ~finally:finish_metrics traced in
      (* stdout is the wire on the stdio transport: telemetry and cache
         diagnostics go to stderr. *)
      if stats then prerr_string (Metrics.render ());
      Option.iter
        (fun c ->
          List.iter (fun d -> prerr_endline (Diag.to_text d)) (Cache.diags c))
        cache_opt;
      flush stdout;
      flush stderr;
      if code <> 0 then exit code
    with
    | () -> `Ok ()
    | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) ->
        input_error
          (Printf.sprintf "%s: another server is listening on this socket"
             (Option.value socket ~default:""))
    | exception Failure msg -> `Error (false, msg)
    | exception Sys_error msg -> `Error (false, msg)
  in
  let doc =
    "Serve decomposition requests over a versioned JSON-lines API \
     (docs/SERVER.md): long-lived engine, shared warm cache, admission \
     control, graceful drain on SIGINT/SIGTERM."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      ret
        (const run $ socket_arg $ max_inflight_arg $ max_budget_arg $ gate_arg
       $ method_arg $ budget_arg $ jobs_arg $ trace_arg $ stats_flag
       $ deep_stats_flag $ metrics_out_arg $ metrics_interval_arg
       $ sanitize_flag $ check_artifacts_flag $ no_cache_flag $ cache_dir_arg
       $ faults_arg $ fallback_arg $ retries_arg $ certify_flag))

(* ---------- suite ---------- *)

let suite_cmd =
  let run () =
    List.iter
      (fun (name, s) ->
        Printf.printf "%-12s paper: #In=%-5d #InM=%-4d #Out=%d\n" name
          s.Suite.p_in s.Suite.p_inm s.Suite.p_out)
      Suite.paper_table1;
    `Ok ()
  in
  let doc = "List the named benchmark suite (Table I circuits)." in
  Cmd.v (Cmd.info "suite" ~doc) Term.(ret (const run $ const ()))

let main_cmd =
  let doc = "QBF-based Boolean function bi-decomposition (STEP)" in
  let info = Cmd.info "step" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      stats_cmd;
      decompose_cmd;
      trace_cmd;
      profile_cmd;
      report_cmd;
      compare_cmd;
      convert_cmd;
      generate_cmd;
      suite_cmd;
      sat_cmd;
      qbf_cmd;
      export_qbf_cmd;
      lint_cmd;
      certify_cmd;
      serve_cmd;
    ]

(* SIGINT/SIGTERM raise Sys.Break at the interrupted point, so every
   [Fun.protect]-guarded sink on the way out (trace files, cache temp
   files) flushes and closes before the process exits with the
   conventional 128+signal code. [eval ~catch:false] lets the exception
   reach us instead of being rendered as a backtrace. *)
let () =
  let got_term = ref false in
  Sys.catch_break true;
  (try
     Sys.set_signal Sys.sigterm
       (Sys.Signal_handle
          (fun _ ->
            got_term := true;
            raise Sys.Break))
   with Invalid_argument _ | Sys_error _ -> ());
  match Cmd.eval ~catch:false main_cmd with
  | code -> exit code
  | exception Sys.Break ->
      flush stdout;
      let signal, code =
        if !got_term then ("terminated", 143) else ("interrupted", 130)
      in
      Printf.eprintf "step: %s\n" signal;
      exit code
  | exception e ->
      (* what cmdliner's default handler would do, minus swallowing Break *)
      let bt = Printexc.get_raw_backtrace () in
      flush stdout;
      Printf.eprintf "step: internal error, uncaught exception:\n%s\n%s"
        (Printexc.to_string e)
        (Printexc.raw_backtrace_to_string bt);
      exit 125
