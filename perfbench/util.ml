(* Shared measurement plumbing: clocks, order statistics, process memory,
   registry deltas, the benchmark-side span recorder and the result line. *)

module Json = Step_obs.Json
module Metrics = Step_obs.Metrics

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Microseconds per call of [f] over [xs], repeated [reps] times. *)
let per_call_us reps f xs =
  let (), dt = time (fun () -> for _ = 1 to reps do List.iter f xs done) in
  1e6 *. dt /. float_of_int (reps * max 1 (List.length xs))

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* ---------- order statistics ---------- *)

(* Linear interpolation between closest ranks (numpy's default), so a
   percentile moves smoothly with the samples instead of jumping. *)
let percentile xs q =
  match xs with
  | [] -> nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let lo = int_of_float pos in
      let hi = min (n - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 0.5

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* ---------- process memory ---------- *)

(* VmHWM (peak resident set) of a process, in MB; 0 when unreadable. *)
let rss_peak_mb ?(pid = "self") () =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d" (fun kb -> float_of_int kb /. 1024.0)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* ---------- registry and runtime deltas ---------- *)

type registry = {
  counters : (string * int) list;
  solve_s : float;  (** Sum of the solver's [sat.solve_s] histogram. *)
  gc : Gc.stat;
}

let registry () =
  let solve_s =
    match List.assoc_opt "sat.solve_s" (Metrics.histograms ()) with
    | Some h -> h.Metrics.sum
    | None -> 0.0
  in
  { counters = Metrics.counters (); solve_s; gc = Gc.quick_stat () }

let counter r name = Option.value ~default:0 (List.assoc_opt name r.counters)

let delta a b name = counter b name - counter a name

(* ---------- benchmark-side spans ---------- *)

(* An in-memory span recorder around the benchmark's own calls into each
   layer. Spans nest through a stack; a span's self time is its duration
   minus the time its child spans cover. Records are kept in memory and
   written out once the run ends. *)
type span = {
  s_id : int;
  s_parent : int;
  s_name : string;
  s_op : string;  (** The output or request the span belongs to. *)
  s_start : float;
  mutable s_dur : float;
  mutable s_child : float;
}

let spans : span list ref = ref []

let stack : span list ref = ref []

let next_id = ref 0

let span ~op name f =
  incr next_id;
  let s =
    {
      s_id = !next_id;
      s_parent = (match !stack with p :: _ -> p.s_id | [] -> 0);
      s_name = name;
      s_op = op;
      s_start = now ();
      s_dur = 0.0;
      s_child = 0.0;
    }
  in
  stack := s :: !stack;
  Fun.protect
    ~finally:(fun () ->
      s.s_dur <- now () -. s.s_start;
      stack := List.tl !stack;
      (match !stack with p :: _ -> p.s_child <- p.s_child +. s.s_dur | [] -> ());
      spans := s :: !spans)
    f

let self_time name =
  List.fold_left
    (fun acc s -> if s.s_name = name then acc +. (s.s_dur -. s.s_child) else acc)
    0.0 !spans

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("id", Json.Int s.s_id);
                ("parent", Json.Int s.s_parent);
                ("name", Json.String s.s_name);
                ("op", Json.String s.s_op);
                ("start", Json.Float s.s_start);
                ("dur", Json.Float s.s_dur);
                ("self", Json.Float (s.s_dur -. s.s_child));
              ]));
      output_char oc '\n')
    (List.rev !spans);
  close_out oc

(* Self time of the program's own spans, delivered through an in-memory
   [Obs.callback_sink]. *)
let program_self : (string, float * int) Hashtbl.t = Hashtbl.create 16

let program_sink =
  Step_obs.Obs.callback_sink (fun r ->
      let s, n =
        Option.value ~default:(0.0, 0)
          (Hashtbl.find_opt program_self r.Step_obs.Obs.r_name)
      in
      Hashtbl.replace program_self r.Step_obs.Obs.r_name
        (s +. r.Step_obs.Obs.r_self, n + 1))

let program_span name =
  Option.value ~default:(0.0, 0) (Hashtbl.find_opt program_self name)

(* ---------- output ---------- *)

let out_dir = "perfbench/out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

type metric = { m_name : string; m_value : float; m_unit : string }

let m name unit value = { m_name = name; m_value = value; m_unit = unit }

(* The human summary goes first (one line per metric, with sample counts
   where they apply); the last line of stdout is the JSON result. *)
let emit ~workload ~correct ~attempted ~failed ~notes metrics =
  Printf.printf "workload %s: attempted=%d failed=%d failed_ratio=%.6f\n"
    workload attempted failed (ratio failed attempted);
  List.iter (fun line -> Printf.printf "  %s\n" line) notes;
  List.iter
    (fun x -> Printf.printf "  %-28s %16.6f %s\n" x.m_name x.m_value x.m_unit)
    metrics;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun x ->
                     ( x.m_name,
                       Json.Obj
                         [
                           ("value", Json.Float x.m_value);
                           ("unit", Json.String x.m_unit);
                         ] ))
                   metrics) );
          ]));
  flush stdout

(* Every per-layer metric, in report order, with its unit. A traced run
   reports all of them; a layer a workload never enters reads 0. *)
let per_layer =
  [
    ("aig.cone_s", "s"); ("aig.compact_s", "s");
    ("cnf.encode_s", "s"); ("cnf.clauses", "count");
    ("mg.find_s", "s"); ("mg.sat_calls", "count"); ("mg.seed_yield", "ratio");
    ("cegar.optimize_s", "s"); ("cegar.refinements", "count"); ("cegar.queries", "count");
    ("cegar.verify_s", "s"); ("cegar.abstraction_s", "s");
    ("cegar.verify_refute_ratio", "ratio");
    ("sat.calls", "count"); ("sat.props", "count"); ("sat.conflicts", "count");
    ("sat.check_us", "us"); ("sat.props_per_s", "1/s");
    ("cert.gen_s", "s"); ("cert.check_s", "s"); ("cert.proof_bytes", "bytes");
    ("extract.s", "s"); ("equiv.s", "s");
    ("engine.overhead_s", "s"); ("engine.busy_frac", "ratio");
    ("cache.hit_ratio", "ratio"); ("cache.hits", "count"); ("cache.misses", "count");
    ("cache.hit.op_s.p50", "s"); ("cache.miss.op_s.p50", "s");
    ("api.parse_us", "us"); ("api.encode_us", "us");
    ("server.overhead_s.p50", "s"); ("server.rejected", "count");
    ("gc.minor_words", "words/op"); ("gc.major_collections", "1/op");
    ("obs.trace_overhead", "ratio");
  ]

let layer_metrics values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer) then
        invalid_arg ("unknown per-layer metric " ^ name))
    values;
  List.map
    (fun (name, unit) ->
      m name unit (Option.value ~default:0.0 (List.assoc_opt name values)))
    per_layer
