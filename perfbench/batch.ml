(* The two batch workloads, driven through the public engine API.

   exact-heavy      Engine.run, -j 1, cache off, no certify: QD and QDB on
                    the heaviest Table III circuits. CEGAR dominates.
   certified-sweep  Engine.run_auto, -j 2, cache off, STEP-MG with certify
                    over the Figure 1 population, then Extract.run and
                    Verify.decomposition on every decomposed output. CEGAR
                    never runs.

   An operation is one primary output. *)

open Util
module E = Step_engine.Engine
module Config = Step_engine.Config
module Api = Step_api.Api
module Circuit = Step_aig.Circuit
module Suite = Step_circuits.Suite
module Method = Step_core.Method
module Gate = Step_core.Gate
module Partition = Step_core.Partition
module Problem = Step_core.Problem
module Copies = Step_core.Copies
module Mg = Step_core.Mg
module Qbf_model = Step_core.Qbf_model
module Certify = Step_core.Certify
module Extract = Step_core.Extract
module Verify = Step_core.Verify
module Obs = Step_obs.Obs

(* One engine call: a circuit under one method. [label] names its
   reference answers. *)
type unit_ = {
  label : string;
  circuit : Circuit.t;
  method_ : Method.t;
  gate : Gate.t;  (** Ignored by auto-gate workloads. *)
}

type spec = {
  name : string;
  jobs : int;
  auto : bool;  (** All three gates per output ([Engine.run_auto]). *)
  certify : bool;
  synth : bool;  (** Extract and verify fA/fB for every decomposed output. *)
  seeded : bool;
      (** The seed orders the units of each pass. Otherwise they run in
          population order: the peak RSS of a long-lived process depends
          on the history of jobs it ran (the runtime keeps the heap it
          grew), so at [-j 2] a seeded order moved it by a factor of 1.6. *)
  cached : bool;
      (** Answers come through the decomposition cache, which solves the
          canonical rebuild of each cone: MG, whose seed order follows
          input numbering, can answer differently there. *)
  units : unit -> unit_ list;
}

(* Generous: no output of either workload comes near it, so no answer
   depends on timing. *)
let per_po_budget = 120.0

let exact_heavy_circuits = [ "C7552"; "s38584.1"; "s15850.1" ]

let exact_heavy =
  {
    name = "exact-heavy";
    jobs = 1;
    auto = false;
    certify = false;
    synth = false;
    seeded = true;
    cached = false;
    units =
      (fun () ->
        List.concat_map
          (fun name ->
            let c = Suite.by_name name in
            List.map
              (fun m -> { label = name; circuit = c; method_ = m; gate = Gate.Or_gate })
              [ Method.Qd; Method.Qdb ])
          exact_heavy_circuits);
  }

(* The distinct circuits of the Figure 1 population (59 of its 145: the
   generators repeat parameters, and a generated circuit's name spells
   them out), labelled by position in the population. *)
let certified_sweep =
  {
    name = "certified-sweep";
    jobs = 2;
    auto = true;
    certify = true;
    synth = true;
    seeded = false;
    cached = false;
    units =
      (fun () ->
        let seen = Hashtbl.create 64 in
        List.concat
          (List.mapi
             (fun i c ->
               if Hashtbl.mem seen c.Circuit.name then []
               else begin
                 Hashtbl.add seen c.Circuit.name ();
                 [
                   {
                     label = Printf.sprintf "suite#%d" i;
                     circuit = c;
                     method_ = Method.Mg;
                     gate = Gate.Or_gate;
                   };
                 ]
               end)
             (Suite.full_suite ())));
  }

let ref_key spec u =
  Refs.key ~circuit:u.label ~method_:(Method.to_string u.method_)
    ~gate:(if spec.auto then "auto" else Gate.to_string u.gate)

let config spec u =
  {
    Config.default with
    Config.gate = u.gate;
    method_ = u.method_;
    per_po_budget;
    total_budget = 100_000.0;
    jobs = spec.jobs;
    cache = None;
    certify = spec.certify;
  }

(* Rows with the gate each one used. *)
let engine_rows spec u config =
  let eng = E.create ~config u.circuit in
  if spec.auto then E.run_auto eng
  else Array.map (fun r -> (Some u.gate, r)) (E.run eng).E.per_po

let run_unit ?trace spec u = engine_rows spec u { (config spec u) with Config.trace }

(* The synthesis flow on a decomposed output: cofactors extracted and the
   decomposition verified, on a private compacted copy. *)
let synthesize u i gate part =
  let p = Problem.of_output (Circuit.compact u.circuit) i in
  match Extract.run p gate part with
  | { Extract.fa; fb } -> Verify.decomposition p gate part ~fa ~fb
  | exception _ -> false

(* Names an output's cone together with its input numbering, so that
   identical outputs of duplicated circuits share one oracle check. *)
let cone_id u i =
  let c = Step_aig.Cone.extract u.circuit.Circuit.aig (Circuit.output u.circuit i) in
  c.Step_aig.Cone.key ^ "@"
  ^ String.concat "," (Array.to_list (Array.map string_of_int c.Step_aig.Cone.inputs))

let check spec refs u rows certs =
  let key = ref_key spec u in
  let answers = Refs.find refs key in
  if Array.length answers <> Array.length rows then
    Array.make (Array.length rows) false
  else
    Array.mapi
      (fun i (gate, r) ->
        let problem = lazy (Problem.of_output (Circuit.compact u.circuit) i) in
        let cert_ok =
          match certs.(i) with Some c -> c.Api.cert_ok | None -> true
        in
        Refs.check_row ~cone:(cone_id u i) ~problem ~method_:u.method_ ~gate
          ~cert_ok r answers.(i))
      rows

(* One engine call plus, for the synthesis flow, extraction and
   verification of every decomposed output. [prog_s] is the time spent
   in the program; the answer checks that follow are not counted. *)
type outcome = {
  rows : (Gate.t option * E.po_result) array;
      (** Certificates are dropped once summarized in [certs], so a pass
          does not hold every proof until it ends. *)
  certs : Api.cert_info option array;
  wall : float;  (** The engine call alone. *)
  prog_s : float;
  ok : bool array Lazy.t;
      (** Per output: answer checks passed. Forced after the measurement,
          so the oracle's own memory and time stay out of it. *)
}

let cert_info (c : Certify.t) =
  {
    Api.cert_ok = c.Certify.ok && c.Certify.diags = [];
    proof_bytes = c.Certify.proof_bytes;
    cert_s = c.Certify.gen_s +. c.Certify.check_s;
  }

let run_checked ?trace spec refs u =
  let rows, wall = time (fun () -> run_unit ?trace spec u) in
  let synth_ok, synth_s =
    time (fun () ->
        Array.mapi
          (fun i (gate, r) ->
            match (gate, r.E.partition) with
            | Some g, Some part when spec.synth -> synthesize u i g part
            | _ -> true)
          rows)
  in
  let certs = Array.map (fun (_, r) -> Option.map cert_info r.E.certificate) rows in
  let rows = Array.map (fun (g, r) -> (g, { r with E.certificate = None })) rows in
  let ok = lazy (Array.map2 ( && ) synth_ok (check spec refs u rows certs)) in
  { rows; certs; wall; prog_s = wall +. synth_s; ok }

(* Seeded order of the units within a pass. *)
let shuffle ~seed l =
  let st = Random.State.make [| seed |] in
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Set-up: building the circuits and loading the reference answers, done
   [n] times; the median is reported. *)
let setup spec ~n =
  let times = ref [] and last = ref None in
  for _ = 1 to n do
    let (units, refs), dt =
      time (fun () -> (spec.units (), Refs.load spec.name))
    in
    times := dt :: !times;
    last := Some (units, refs);
    (* drop the earlier copies now, so they never count in the peak *)
    Gc.compact ()
  done;
  (Option.get !last, median !times)

(* The counts that must repeat exactly between passes. *)
let exact_counts =
  [
    "sat.calls";
    "sat.propagations";
    "sat.conflicts";
    "qbf.refinements";
    "qbf.queries";
    "mg.sat_calls";
    "mg.seeds_tried";
  ]

let records_path spec = Filename.concat out_dir (spec.name ^ "-records.jsonl")

(* Per-op records in the API's one per-output shape. *)
let write_records spec outcomes =
  let oc = open_out (records_path spec) in
  List.iter
    (fun (u, o) ->
      Array.iteri
        (fun i (_, r) ->
          let record = { (Api.po_record_of_result r) with Api.cert = o.certs.(i) } in
          output_string oc
            (Json.to_string
               (Json.Obj
                  [ ("unit", Json.String u.label); ("record", Api.po_to_json record) ]));
          output_char oc '\n')
        o.rows)
    outcomes;
  close_out oc

(* ---------- end-to-end run ---------- *)

(* One pass over every unit, in the spec's order, with the registry
   deltas it caused. *)
let pass ?trace spec refs units ~seed =
  let before = registry () in
  let outcomes =
    List.map
      (fun u ->
        (* every engine call starts from the same heap, whatever ran
           before it, as a fresh [step decompose] process would *)
        Gc.compact ();
        (u, run_checked ?trace spec refs u))
      (if spec.seeded then shuffle ~seed units else units)
  in
  (outcomes, before, registry ())

let outputs outcomes =
  List.concat_map (fun (u, o) -> List.init (Array.length o.rows) (fun i -> (u, o, i))) outcomes

let run_plain spec ~seed ~seconds =
  let (units, refs), setup_s = setup spec ~n:15 in
  (* the counts must repeat exactly between passes *)
  let min_passes = 2 in
  let t0 = now () in
  let cpus = ref [] and attempted = ref 0 and failed = ref 0 and prog_s = ref 0.0 in
  let pass_counts = ref [] and pass_times = ref [] in
  let passes = ref 0 in
  let all = ref [] in
  while !passes < min_passes || now () -. t0 < float_of_int seconds do
    let outcomes, before, after =
      pass spec refs units ~seed:(seed + (7919 * !passes))
    in
    pass_counts := List.map (delta before after) exact_counts :: !pass_counts;
    let pass_s = List.fold_left (fun a (_, o) -> a +. o.prog_s) 0.0 outcomes in
    pass_times := pass_s :: !pass_times;
    prog_s := !prog_s +. pass_s;
    all := outcomes :: !all;
    incr passes
  done;
  let rss = rss_peak_mb () in
  List.iter
    (fun outcomes ->
      List.iter
        (fun (_, o, i) ->
          incr attempted;
          cpus := (snd o.rows.(i)).E.cpu :: !cpus;
          if not (Lazy.force o.ok).(i) then incr failed)
        (outputs outcomes))
    !all;
  let last_pass = List.hd !all in
  ensure_out_dir ();
  write_records spec last_pass;
  let counts_repeat =
    match !pass_counts with
    | [] -> true
    | c :: rest -> List.for_all (( = ) c) rest
  in
  let n = List.length !cpus in
  let notes =
    [
      Printf.sprintf "passes=%d program_s=%.3f outputs=%d" !passes !prog_s n;
      Printf.sprintf "op_s.p50/p90/p99 over n=%d per-output cpu samples" n;
      Printf.sprintf "program_s per pass: %s"
        (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !pass_times));
      Printf.sprintf "counts repeat exactly across %d passes: %b" !passes
        counts_repeat;
      Printf.sprintf "counts per pass: %s"
        (String.concat " "
           (List.map2 (Printf.sprintf "%s=%d") exact_counts
              (List.hd !pass_counts)));
    ]
  in
  let metrics =
    [
      m "setup_s" "s" setup_s;
      m "ops_per_s" "1/s" (float_of_int n /. !prog_s);
      m "op_s.p50" "s" (percentile !cpus 0.50);
      m "op_s.p90" "s" (percentile !cpus 0.90);
      m "op_s.p99" "s" (percentile !cpus 0.99);
      m "ok_ratio" "ratio" (1.0 -. ratio !failed !attempted);
      m "rss_peak_mb" "MB" rss;
    ]
  in
  let correct = !failed = 0 && counts_repeat in
  emit ~workload:spec.name ~correct ~attempted:!attempted ~failed:!failed ~notes
    metrics

(* ---------- traced run ---------- *)

let qbf_target = function
  | Method.Qd -> Qbf_model.Disjointness
  | Method.Qb -> Qbf_model.Balancedness
  | Method.Qdb -> Qbf_model.Combined
  | Method.Mg | Method.Ljh -> invalid_arg "qbf_target"

let clauses = ref 0

(* One gate of one output through the public sequence the engine uses,
   each call wrapped in a benchmark span. Returns the canonical
   partition. *)
let replay_gate spec u ~op c i gate =
  let p = span ~op "aig.cone" (fun () -> Problem.of_output c i) in
  if Problem.n_vars p < 2 then None
  else begin
    let t0 = now () in
    let copies = span ~op "cnf.encode" (fun () -> Copies.create p gate) in
    clauses := !clauses + Step_sat.Solver.n_clauses (Copies.solver copies);
    let budget = if u.method_ = Method.Mg then per_po_budget else per_po_budget /. 4.0 in
    let mg =
      span ~op "mg.find" (fun () -> Mg.find ~copies ~time_budget:budget p gate)
    in
    let part =
      match u.method_ with
      | Method.Mg -> mg.Mg.partition
      | m ->
          let time_budget = per_po_budget -. (now () -. t0) in
          (span ~op "cegar.optimize" (fun () ->
               Qbf_model.optimize ~copies ?bootstrap:mg.Mg.partition ~time_budget p
                 gate (qbf_target m)))
            .Qbf_model.partition
    in
    if spec.certify then begin
      let cert =
        span ~op "cert.gen" (fun () ->
            Certify.for_po ~check:false ~po:(Circuit.output_name c i)
              ~method_name:(Method.to_string u.method_) p gate part)
      in
      ignore (span ~op "cert.check" (fun () -> Option.map Certify.recheck cert))
    end;
    Option.map Partition.canonical part
  end

let score = function
  | None -> (infinity, infinity)
  | Some p -> (Partition.disjointness p, Partition.balancedness p)

(* The whole output: one compacted copy per job, all three gates for
   auto runs (best kept as the engine keeps it), then the synthesis
   flow. *)
let replay_output spec u i =
  let op = Printf.sprintf "%s/%s/po%d" u.label (Method.to_string u.method_) i in
  span ~op "output" @@ fun () ->
  let c = span ~op "aig.compact" (fun () -> Circuit.compact u.circuit) in
  let gates = if spec.auto then Gate.all else [ u.gate ] in
  let best =
    List.fold_left
      (fun acc g ->
        let part = replay_gate spec u ~op c i g in
        match acc with
        | Some (_, bp) when not (score part < score bp) -> acc
        | _ -> Some (g, part))
      None gates
  in
  let answer =
    match best with Some (g, Some part) -> Some (g, part) | _ -> None
  in
  (match answer with
  | Some (g, part) when spec.synth ->
      let c = span ~op "aig.compact" (fun () -> Circuit.compact u.circuit) in
      let p = span ~op "aig.cone" (fun () -> Problem.of_output c i) in
      let { Extract.fa; fb } = span ~op "extract" (fun () -> Extract.run p g part) in
      ignore (span ~op "equiv" (fun () -> Verify.decomposition p g part ~fa ~fb))
  | _ -> ());
  answer

let same_answer (gate, (r : E.po_result)) answer =
  match (r.E.partition, answer) with
  | None, None -> true
  | Some part, Some (g, part') -> gate = Some g && Partition.equal part part'
  | _ -> false

(* Fixed cost of one solve: [Copies.check] on the workload's own cones
   and decomposing partitions (each an UNSAT answer), timed in the
   benchmark, in microseconds per call. *)
let check_us outputs =
  let reps = 10 and calls = ref 0 and total = ref 0.0 in
  List.iter
    (fun (u, o, i) ->
      match o.rows.(i) with
      | Some g, { E.partition = Some part; _ } when !calls < 4000 ->
          let p = Problem.of_output (Circuit.compact u.circuit) i in
          let copies = Copies.create p g in
          ignore (Copies.check copies part);
          let (), dt =
            time (fun () ->
                for _ = 1 to reps do
                  ignore (Copies.check copies part)
                done)
          in
          calls := !calls + reps;
          total := !total +. dt
      | _ -> ())
    outputs;
  if !calls = 0 then 0.0 else 1e6 *. !total /. float_of_int !calls

(* Per-call cost of the API serializers on this workload's stream: the
   decompose request each engine call answers, and each per-output
   record as the server streams it. *)
let api_us outcomes =
  let reps = 200 in
  let lines =
    List.map
      (fun (u, _) ->
        Json.to_string
          (Api.request_to_json
             (Api.Decompose
                {
                  id = u.label;
                  source = Api.Handle u.label;
                  po = None;
                  patch =
                    {
                      Api.empty_patch with
                      Api.method_ = Some u.method_;
                      jobs = Some 1;
                      cache = Some false;
                    };
                })))
      outcomes
  in
  let responses =
    List.concat_map
      (fun (u, o) ->
        Array.to_list
          (Array.map
             (fun (_, r) -> Api.Po { id = u.label; record = Api.po_record_of_result r })
             o.rows))
      outcomes
  in
  ( per_call_us reps (fun l -> ignore (Api.parse_request_line l)) lines,
    per_call_us reps (fun r -> ignore (Json.to_string (Api.response_to_json r))) responses )

let run_traced spec ~seed =
  let units, refs = (spec.units (), Refs.load spec.name) in
  (* plain: counts, GC, scheduling *)
  let plain, before, after = pass spec refs units ~seed in
  let wall_of = List.fold_left (fun a (_, o) -> a +. o.wall) 0.0 in
  let plain_s = wall_of plain in
  (* the program's own spans on, kept in memory *)
  let kept = ref 0 and busy = ref 0.0 in
  let sink =
    Obs.callback_sink (fun r ->
        incr kept;
        (* one attempt span covers all of an output's job, every gate *)
        if r.Obs.r_name = "engine.attempt" then busy := !busy +. r.Obs.r_dur)
  in
  let traced, _, _ = pass ~trace:sink spec refs units ~seed in
  let traced_s = wall_of traced in
  (* a second plain pass brackets the traced one, so warm-up and drift
     do not lean the overhead ratio either way *)
  let plain2, _, _ = pass spec refs units ~seed in
  let plain_mean_s = (plain_s +. wall_of plain2) /. 2.0 in
  (* replay, with benchmark spans around every public call *)
  let reg0 = registry () in
  let answers, replay_s =
    time (fun () ->
        Obs.with_sink program_sink (fun () ->
            List.concat_map
              (fun (u, o) -> List.init (Array.length o.rows) (fun i -> (o, i, replay_output spec u i)))
              plain))
  in
  let reg1 = registry () in
  let mismatches =
    List.length (List.filter (fun (o, i, a) -> not (same_answer o.rows.(i) a)) answers)
  in
  let outs = outputs plain in
  let n = List.length outs in
  let failed =
    mismatches + List.length (List.filter (fun (_, o, i) -> not (Lazy.force o.ok).(i)) outs)
  in
  let d = delta before after in
  let per_op x = x /. float_of_int (max 1 n) in
  let jobs = float_of_int spec.jobs in
  let verify_s, verify_n = program_span "sat.verify" in
  let abstraction_s, _ = program_span "sat.abstraction" in
  let proof_bytes =
    List.fold_left
      (fun a (_, o, i) ->
        match o.certs.(i) with Some c -> a + c.Api.proof_bytes | None -> a)
      0 outs
  in
  let parse_us, encode_us = api_us plain in
  ensure_out_dir ();
  write_spans (Filename.concat out_dir (spec.name ^ "-spans.jsonl"));
  let notes =
    [
      Printf.sprintf
        "outputs=%d plain_s=%.3f (mean of two passes) traced_s=%.3f (%d program spans) replay_s=%.3f"
        n plain_mean_s traced_s !kept replay_s;
      Printf.sprintf "replay mismatches=%d" mismatches;
      "layer times are self times over one replayed pass";
    ]
  in
  let fi = float_of_int in
  let values =
    [
      ("aig.cone_s", self_time "aig.cone");
      ("aig.compact_s", self_time "aig.compact");
      ("cnf.encode_s", self_time "cnf.encode");
      ("cnf.clauses", fi !clauses);
      ("mg.find_s", self_time "mg.find");
      ("mg.sat_calls", fi (d "mg.sat_calls"));
      ("mg.seed_yield", ratio (d "mg.decomposed") (d "mg.seeds_tried"));
      ("cegar.optimize_s", self_time "cegar.optimize");
      ("cegar.refinements", fi (d "qbf.refinements"));
      ("cegar.queries", fi (d "qbf.queries"));
      ("cegar.verify_s", verify_s);
      ("cegar.abstraction_s", abstraction_s);
      ("cegar.verify_refute_ratio", ratio (delta reg0 reg1 "qbf.refinements") verify_n);
      ("sat.calls", fi (d "sat.calls"));
      ("sat.props", fi (d "sat.propagations"));
      ("sat.conflicts", fi (d "sat.conflicts"));
      ("sat.check_us", check_us outs);
      ( "sat.props_per_s",
        if after.solve_s > before.solve_s then
          fi (d "sat.propagations") /. (after.solve_s -. before.solve_s)
        else 0.0 );
      ("cert.gen_s", self_time "cert.gen");
      ("cert.check_s", self_time "cert.check");
      ("cert.proof_bytes", fi proof_bytes);
      ("extract.s", self_time "extract");
      ("equiv.s", self_time "equiv");
      ("engine.overhead_s", traced_s -. (!busy /. jobs));
      ("engine.busy_frac", !busy /. (jobs *. traced_s));
      ("api.parse_us", parse_us);
      ("api.encode_us", encode_us);
      ("gc.minor_words", per_op (after.gc.Gc.minor_words -. before.gc.Gc.minor_words));
      ( "gc.major_collections",
        per_op (fi (after.gc.Gc.major_collections - before.gc.Gc.major_collections)) );
      ("obs.trace_overhead", traced_s /. plain_mean_s);
    ]
  in
  let metrics = layer_metrics values in
  emit ~workload:spec.name ~correct:(failed = 0) ~attempted:n ~failed ~notes metrics

(* ---------- reference answers ---------- *)

let exhaustive_max = 8

(* Builds the reference answers from a certified run: every certificate
   must pass the independent checker, every partition the BDD oracle, and
   on supports of at most [exhaustive_max] inputs the verdict and optimum
   must equal [Exhaustive.best]. Returns the entries and the number of
   disagreements (a reference set is only written when that is 0). *)
let build_refs spec =
  let units = spec.units () in
  let bad = ref 0 and mg_incomplete = ref 0 in
  let complain fmt = Printf.ksprintf (fun s -> incr bad; prerr_endline s) fmt in
  let entries =
    List.map
      (fun u ->
        let key = ref_key spec u in
        let rows =
          engine_rows spec u
            {
              (config spec u) with
              Config.certify = true;
              jobs = 2;
              cache = (if spec.cached then Some (Step_cache.Cache.create ()) else None);
            }
        in
        let answers =
          Array.mapi
            (fun i (gate, r) ->
              let fresh () = Problem.of_output (Circuit.compact u.circuit) i in
              (match E.po_status r with
              | "optimal" | "decomposed" | "indecomposable" -> ()
              | s -> complain "%s po%d: status %s" key i s);
              (match r.E.certificate with
              | Some c when not (c.Certify.ok && c.Certify.diags = []) ->
                  complain "%s po%d: certificate rejected" key i
              | None when r.E.support_size >= 2 ->
                  complain "%s po%d: no certificate" key i
              | _ -> ());
              let k = Option.bind r.E.partition (Refs.k_of u.method_) in
              (match (gate, r.E.partition) with
              | Some g, Some part ->
                  if not (Refs.oracle (fresh ()) g part) then
                    complain "%s po%d: BDD oracle rejects %s" key i
                      (Partition.to_string part)
              | _ -> ());
              if r.E.support_size >= 2 && r.E.support_size <= exhaustive_max
              then begin
                let objective part =
                  Option.value ~default:0
                    (Refs.k_of u.method_ (Partition.canonical part))
                in
                let best g = Step_core.Exhaustive.best ~objective (fresh ()) g in
                match (gate, r.E.partition) with
                | Some g, Some _ -> (
                    match best g with
                    | None -> complain "%s po%d: exhaustive finds no partition" key i
                    | Some b ->
                        if Refs.k_of u.method_ (Partition.canonical b) <> k then
                          complain "%s po%d: exhaustive optimum differs" key i)
                | _, None ->
                    let gates = if spec.auto then Gate.all else [ u.gate ] in
                    if List.exists (fun g -> best g <> None) gates then
                      if u.method_ = Method.Mg then incr mg_incomplete
                      else complain "%s po%d: exhaustive decomposes it" key i
                | None, Some _ -> complain "%s po%d: partition without gate" key i
              end;
              {
                Refs.dec = r.E.partition <> None;
                k;
                gate = (if spec.auto then Option.map Gate.to_string gate else None);
              })
            rows
        in
        (key, answers))
      units
  in
  Printf.eprintf
    "%s: %d references, %d disagreements, %d small MG misses (MG is incomplete)\n%!"
    spec.name (List.length entries) !bad !mg_incomplete;
  (entries, !bad)
