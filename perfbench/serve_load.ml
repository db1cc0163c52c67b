(* The serve-mixed workload: a [step serve --socket] subprocess with its
   cache on, driven by a closed loop over two client connections (one
   thread each) from this process.

   Set-up starts the server, uploads the hot circuits and warms the hot
   set: every (circuit, method, gate) whole-circuit decompose request
   once. The timed stream then mixes hot requests, which the cache
   answers, with never-seen generated circuits, which miss and insert:
   exactly one miss in every block of [block] requests, at a seeded
   position. An operation is one request, timed from send to its final
   [result] or [error] line. *)

open Util
module Api = Step_api.Api
module Circuit = Step_aig.Circuit
module Blif = Step_aig.Blif
module Cone = Step_aig.Cone
module Suite = Step_circuits.Suite
module Generators = Step_circuits.Generators
module Method = Step_core.Method
module Gate = Step_core.Gate

(* ---------- inputs ---------- *)

let hot_circuits =
  [ "rot"; "s5378"; "s1423"; "pair"; "C880"; "clma"; "ITC b07"; "ITC b12"; "sbc"; "mm9a"; "mm9b" ]

let hot_methods = [ Method.Qd; Method.Mg ]

let hot_gates = [ Gate.Or_gate; Gate.And_gate ]

let hot_spec =
  {
    Batch.name = "serve-hot";
    jobs = 1;
    auto = false;
    certify = false;
    synth = false;
    seeded = false;
    cached = true;
    units =
      (fun () ->
        List.concat_map
          (fun name ->
            let c = Suite.by_name name in
            List.concat_map
              (fun method_ ->
                List.map
                  (fun gate -> { Batch.label = name; circuit = c; method_; gate })
                  hot_gates)
              hot_methods)
          hot_circuits);
  }

(* Never-seen circuits: single-output planted cones over 9 to 16 inputs,
   decomposed with QD under OR. *)
let pool_size = 6000

let pool_circuit j =
  let na = 4 + (j mod 3) and nb = 3 + (j / 3 mod 3) and nc = 2 + (j / 9 mod 3) in
  let pl = Generators.planted_cone ~seed:(50_000 + j) ~na ~nb ~nc Gate.Or_gate in
  { pl.Generators.circuit with Circuit.name = Printf.sprintf "pool%d" j }

let pool_unit j =
  {
    Batch.label = Printf.sprintf "pool#%d" j;
    circuit = pool_circuit j;
    method_ = Method.Qd;
    gate = Gate.Or_gate;
  }

let pool_spec =
  {
    Batch.name = "serve-pool";
    jobs = 1;
    auto = false;
    certify = false;
    synth = false;
    seeded = false;
    cached = true;
    units = (fun () -> List.init pool_size pool_unit);
  }

(* A miss must really miss: no pool cone may repeat another pool cone or
   a hot QD/OR cone (the cache keys on the canonical cone). *)
let pool_cones_distinct () =
  let seen = Hashtbl.create 4096 in
  let fresh c i =
    let k = (Cone.extract c.Circuit.aig (Circuit.output c i)).Cone.key in
    if Hashtbl.mem seen k then false
    else (
      Hashtbl.add seen k ();
      true)
  in
  List.iter
    (fun name ->
      let c = Suite.by_name name in
      for i = 0 to Circuit.n_outputs c - 1 do
        ignore (fresh c i)
      done)
    hot_circuits;
  List.for_all (fun j -> fresh (pool_circuit j) 0) (List.init pool_size Fun.id)

(* ---------- the plan ---------- *)

(* One miss per block: a 20% miss share, so p50 sits among hits and p90
   and p99 among misses. With 5%, p90 sat in the top of the hit
   distribution, where latency depends on whether the other connection
   is solving a miss, and its spread over seeds reached 0.46. *)
let block = 5

type item = Hot of int | Miss of int

type plan = { items : item array; kinds : Batch.unit_ array }

(* The mix is balanced so that the seed moves which requests are sent,
   not what they cost on average: hot kinds come in shuffled rounds that
   use every kind once, and misses cycle through the pool's size classes
   ([pool_circuit] sizes repeat with period [pool_classes]), each class
   taking its members in a seeded order. *)
let pool_classes = 27

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let make_plan ~seed kinds =
  let st = Random.State.make [| seed; 0x5e7e |] in
  let members =
    Array.init pool_classes (fun c ->
        shuffle st
          (Array.init ((pool_size - c + pool_classes - 1) / pool_classes) (fun k ->
               c + (k * pool_classes))))
  in
  let n_blocks = pool_classes * Array.length members.(pool_classes - 1) in
  let misses =
    Array.init n_blocks (fun b -> members.(b mod pool_classes).(b / pool_classes))
  in
  let n_kinds = Array.length kinds in
  let round = ref [||] and pos = ref 0 in
  let next_kind () =
    if !pos >= Array.length !round then begin
      round := shuffle st (Array.init n_kinds Fun.id);
      pos := 0
    end;
    incr pos;
    !round.(!pos - 1)
  in
  let items =
    Array.concat
      (List.init n_blocks (fun b ->
           let miss_at = Random.State.int st block in
           Array.init block (fun k -> if k = miss_at then Miss misses.(b) else Hot (next_kind ()))))
  in
  { items; kinds }

(* ---------- the server and its connections ---------- *)

type conn = { ic : in_channel; oc : out_channel; fd : Unix.file_descr }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd; fd }

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

type server = { pid : int; sock : string; log : Unix.file_descr }

let server_count = ref 0

(* Servers still running, killed if the benchmark exits early. *)
let live = ref []

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* Every flag spelled out: two job slots per connection, so no request
   of this closed loop is ever shed. *)
let start_server ~step ?trace ?metrics () =
  incr server_count;
  ensure_out_dir ();
  let sock =
    Filename.concat out_dir (Printf.sprintf "serve-%d-%d.sock" (Unix.getpid ()) !server_count)
  in
  (try Sys.remove sock with Sys_error _ -> ());
  let opt flag = function Some v -> [ flag; v ] | None -> [] in
  let args =
    [ step; "serve"; "--socket"; sock; "--max-inflight"; "4"; "--max-budget"; "300";
      "--gate"; "or"; "--method"; "qd"; "--budget"; "60"; "--jobs"; "1";
      "--retries"; "0" ]
    @ opt "--trace" trace @ opt "--metrics-out" metrics
  in
  let log =
    Unix.openfile (Filename.concat out_dir "serve-stderr.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid = Unix.create_process step (Array.of_list args) Unix.stdin log log in
  live := pid :: !live;
  let deadline = now () +. 30.0 in
  let rec wait () =
    if Sys.file_exists sock then ()
    else if now () > deadline then failwith "step serve did not open its socket"
    else (
      Unix.sleepf 0.005;
      wait ())
  in
  wait ();
  { pid; sock; log }

let send_line c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let send c req = send_line c (Json.to_string (Api.request_to_json req))

(* Every response renders [schema_version] and then [type] first, so the
   timed loop recognises a streamed per-output record without parsing
   it; lines are parsed once the stream is over. *)
let po_prefix = {|{"schema_version":1,"type":"po",|}

let is_po line =
  String.length line >= String.length po_prefix
  && String.sub line 0 (String.length po_prefix) = po_prefix

(* Raw response lines up to the final one for the request just sent. *)
let receive_lines c =
  let rec loop acc =
    let line = input_line c.ic in
    if is_po line then loop (line :: acc) else List.rev (line :: acc)
  in
  loop []

let parse_response line =
  match Api.response_of_json (Json.of_string line) with
  | Ok r -> r
  | Error d -> Api.Error { id = None; code = d.Step_lint.Diag.code; message = line }
  | exception _ -> Api.Error { id = None; code = Api.code_malformed; message = line }

let receive c = List.map parse_response (receive_lines c)

let call c req =
  send c req;
  receive c

(* Drain, then wait for the server to exit; returns its exit code (or
   -1 when it had to be killed). *)
let stop_server srv c =
  let _ = call c (Api.Drain { id = "drain" }) in
  let deadline = now () +. 30.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        Unix.kill srv.pid Sys.sigkill;
        ignore (Unix.waitpid [] srv.pid);
        -1
    | _, Unix.WEXITED code -> code
    | _, _ -> -1
  in
  let code = wait () in
  live := List.filter (( <> ) srv.pid) !live;
  Unix.close srv.log;
  (try Sys.remove srv.sock with Sys_error _ -> ());
  code

let stats c =
  match call c (Api.Get_stats { id = "stats" }) with
  | [ Api.Server_stats { stats = { Api.cache = Some cs; _ }; _ } ] -> (cs.Api.hits, cs.Api.misses)
  | _ -> (-1, -1)

(* ---------- requests and their checks ---------- *)

let decompose ~id source (u : Batch.unit_) =
  Api.Decompose
    {
      id;
      source;
      po = None;
      patch =
        {
          Api.empty_patch with
          Api.method_ = Some u.Batch.method_;
          gate = Some u.Batch.gate;
          jobs = Some 1;
        };
    }

(* Per-output records of one answered request, or [None] when the final
   response is not a result. *)
let records resps =
  match List.rev resps with
  | Api.Result { summary; _ } :: _ ->
      Some
        ( summary,
          List.filter_map (function Api.Po { record; _ } -> Some record | _ -> None) resps )
  | _ -> None

let rejected resps =
  List.exists
    (function Api.Error { code; _ } -> code = Api.code_admission | _ -> false)
    resps

(* Checks an answer against its reference; [cache] is the expected cache
   field per output. *)
let answer_ok (u : Batch.unit_) (answers : Refs.answer array) ~cache resps =
  match records resps with
  | None -> false
  | Some (summary, recs) ->
      List.length recs = Array.length answers
      && summary.Api.n_failed = 0
      && summary.Api.n_decomposed
         = Array.fold_left (fun a x -> if x.Refs.dec then a + 1 else a) 0 answers
      && List.for_all2
           (fun (r : Api.po_record) (a, expect) ->
             (match r.Api.status with
             | "optimal" | "decomposed" | "indecomposable" -> true
             | _ -> false)
             && r.Api.decomposed = a.Refs.dec
             && r.Api.cache = expect
             && ((not a.Refs.dec)
                || a.Refs.k = None
                || Refs.k_of_sizes u.Batch.method_ ~xa:r.Api.xa ~xb:r.Api.xb ~xc:r.Api.xc
                   = a.Refs.k))
           recs
           (List.combine (Array.to_list answers) (Array.to_list cache))

(* ---------- set-up ---------- *)

let connections = 2

type env = {
  srv : server;
  conns : conn array;
  handles : string array;  (** Per hot kind. *)
  hot_cache : string option array array;
      (** Per hot kind and output: the cache field a hit carries. *)
  warm_ok : bool;
}

let setup ~step ?trace ?metrics (kinds : Batch.unit_ array) hot_refs =
  let srv = start_server ~step ?trace ?metrics () in
  let conns = Array.init connections (fun _ -> connect srv.sock) in
  let c = conns.(0) in
  let uploaded = Hashtbl.create 16 in
  let handles =
    Array.map
      (fun (u : Batch.unit_) ->
        match Hashtbl.find_opt uploaded u.Batch.label with
        | Some h -> h
        | None ->
            let h =
              match
                call c
                  (Api.Upload
                     {
                       id = "up";
                       name = Some u.Batch.label;
                       format = "blif";
                       text = Blif.to_string u.Batch.circuit;
                     })
              with
              | [ Api.Uploaded { handle; _ } ] -> handle
              | _ -> failwith ("upload failed: " ^ u.Batch.label)
            in
            Hashtbl.replace uploaded u.Batch.label h;
            h)
      kinds
  in
  (* warm the hot set over both connections *)
  let warm_ok = Array.make (Array.length kinds) false in
  let hot_cache = Array.make (Array.length kinds) [||] in
  let warm ci () =
    Array.iteri
      (fun k (u : Batch.unit_) ->
        if k mod connections = ci then begin
          let resps = call conns.(ci) (decompose ~id:"warm" (Api.Handle handles.(k)) u) in
          let recs = match records resps with Some (_, r) -> r | None -> [] in
          let miss = Array.of_list (List.map (fun (r : Api.po_record) -> r.Api.cache) recs) in
          let answers = Refs.find hot_refs (Batch.ref_key hot_spec u) in
          warm_ok.(k) <- answer_ok u answers ~cache:miss resps;
          hot_cache.(k) <- Array.map (Option.map (fun _ -> "hit")) miss
        end)
      kinds
  in
  let threads = Array.init connections (fun ci -> Thread.create (warm ci) ()) in
  Array.iter Thread.join threads;
  { srv; conns; handles; hot_cache; warm_ok = Array.for_all Fun.id warm_ok }

(* ---------- the timed stream ---------- *)

type sample = {
  idx : int;
  latency : float;
  resps : Api.response list;
  line : string;  (** The request as sent. *)
}

(* Two client threads, one connection each, pull the plan in order until
   [limit] requests or [deadline]. *)
let stream env plan ~deadline ~limit =
  let next = ref 0 and lock = Mutex.create () in
  let take () =
    Mutex.lock lock;
    let k = !next in
    let go = k < limit && k < Array.length plan.items && now () < deadline in
    if go then incr next;
    Mutex.unlock lock;
    if go then Some k else None
  in
  let client c out () =
    let rec loop () =
      match take () with
      | None -> ()
      | Some k ->
          let id = "r" ^ string_of_int k in
          let req =
            match plan.items.(k) with
            | Hot kind -> decompose ~id (Api.Handle env.handles.(kind)) plan.kinds.(kind)
            | Miss j ->
                let u = pool_unit j in
                decompose ~id
                  (Api.Inline { format = "blif"; text = Blif.to_string u.Batch.circuit })
                  u
          in
          let line = Json.to_string (Api.request_to_json req) in
          let t0 = now () in
          match
            send_line c line;
            receive_lines c
          with
          | lines ->
              out := (k, now () -. t0, lines, line) :: !out;
              loop ()
          | exception (End_of_file | Sys_error _ | Unix.Unix_error _) ->
              (* the connection is gone: this request failed, and so
                 would every later one on it *)
              out := (k, now () -. t0, [], line) :: !out
    in
    loop ()
  in
  let outs = Array.map (fun _ -> ref []) env.conns in
  let t0 = now () in
  let threads =
    Array.mapi (fun i c -> Thread.create (client c outs.(i)) ()) env.conns
  in
  Array.iter Thread.join threads;
  let wall = now () -. t0 in
  let samples =
    List.concat_map
      (fun out ->
        List.map
          (fun (idx, latency, lines, line) ->
            { idx; latency; resps = List.map parse_response lines; line })
          !out)
      (Array.to_list outs)
  in
  (samples, wall)

(* ---------- checks over a recorded stream ---------- *)

type tally = {
  failed : int;
  rejected : int;
  planned_hits : int;
  planned_misses : int;
  hits : int;  (** Observed, from the records' cache field. *)
  misses : int;
}

let count_some a = Array.fold_left (fun n x -> if x = None then n else n + 1) 0 a

(* Kinds already reported on stderr. *)
let failing_kinds = Hashtbl.create 8

let tally env plan ~hot_refs ~pool_refs samples =
  List.fold_left
    (fun t s ->
      let u, answers, cache =
        match plan.items.(s.idx) with
        | Hot kind ->
            let u = plan.kinds.(kind) in
            (u, Refs.find hot_refs (Batch.ref_key hot_spec u), env.hot_cache.(kind))
        | Miss j ->
            let u = pool_unit j in
            (u, Refs.find pool_refs (Batch.ref_key pool_spec u), [| Some "miss" |])
      in
      let ok = answer_ok u answers ~cache s.resps in
      if (not ok) && not (Hashtbl.mem failing_kinds (Batch.ref_key hot_spec u)) then begin
        Hashtbl.replace failing_kinds (Batch.ref_key hot_spec u) ();
        prerr_endline ("serve-mixed: wrong answer to " ^ s.line);
        List.iter (fun r -> prerr_endline ("  " ^ Json.to_string (Api.response_to_json r))) s.resps
      end;
      let seen v =
        match records s.resps with
        | Some (_, recs) -> List.length (List.filter (fun (r : Api.po_record) -> r.Api.cache = Some v) recs)
        | None -> 0
      in
      let is_miss = match plan.items.(s.idx) with Miss _ -> true | Hot _ -> false in
      {
        failed = (t.failed + if ok then 0 else 1);
        rejected = (t.rejected + if rejected s.resps then 1 else 0);
        planned_hits = (t.planned_hits + if is_miss then 0 else count_some cache);
        planned_misses = (t.planned_misses + if is_miss then count_some cache else 0);
        hits = t.hits + seen "hit";
        misses = t.misses + seen "miss";
      })
    { failed = 0; rejected = 0; planned_hits = 0; planned_misses = 0; hits = 0; misses = 0 }
    samples

let is_hit plan s = match plan.items.(s.idx) with Hot _ -> true | Miss _ -> false

let load_inputs () =
  let kinds = Array.of_list (hot_spec.Batch.units ()) in
  (kinds, Refs.load hot_spec.Batch.name, Refs.load pool_spec.Batch.name)

(* ---------- end-to-end run ---------- *)

let setups = 3

let run_plain ~step ~seed ~seconds =
  let times = ref [] and env = ref None and exits_ok = ref true in
  for i = 1 to setups do
    let (kinds, hot_refs, pool_refs, e), dt =
      time (fun () ->
          let kinds, hot_refs, pool_refs = load_inputs () in
          (kinds, hot_refs, pool_refs, setup ~step kinds hot_refs))
    in
    times := dt :: !times;
    if i < setups then (
      if stop_server e.srv e.conns.(0) <> 0 then exits_ok := false;
      Array.iter close_conn e.conns)
    else env := Some (kinds, hot_refs, pool_refs, e)
  done;
  let kinds, hot_refs, pool_refs, env = Option.get !env in
  let plan = make_plan ~seed kinds in
  let h0, m0 = stats env.conns.(0) in
  let samples, wall =
    stream env plan ~deadline:(now () +. float_of_int seconds) ~limit:max_int
  in
  let h1, m1 = stats env.conns.(0) in
  let rss = rss_peak_mb ~pid:(string_of_int env.srv.pid) () in
  let code = stop_server env.srv env.conns.(0) in
  Array.iter close_conn env.conns;
  let t = tally env plan ~hot_refs ~pool_refs samples in
  let n = List.length samples in
  let lat = List.map (fun s -> s.latency) samples in
  let mix_ok =
    t.hits = t.planned_hits && t.misses = t.planned_misses
    && h1 - h0 = t.hits && m1 - m0 = t.misses
  in
  let notes =
    [
      Printf.sprintf "requests=%d wall_s=%.3f connections=2 closed loop" n wall;
      Printf.sprintf "op_s.p50/p90/p99 over n=%d request latencies (%d beyond p99)"
        n (n / 100);
      Printf.sprintf "cache hits=%d (planned %d, server %d) misses=%d (planned %d, server %d)"
        t.hits t.planned_hits (h1 - h0) t.misses t.planned_misses (m1 - m0);
      Printf.sprintf "SRV003=%d warm_ok=%b server_exit=%d earlier_exits_ok=%b"
        t.rejected env.warm_ok code !exits_ok;
    ]
  in
  let metrics =
    [
      m "setup_s" "s" (median !times);
      m "ops_per_s" "1/s" (float_of_int n /. wall);
      m "op_s.p50" "s" (percentile lat 0.50);
      m "op_s.p90" "s" (percentile lat 0.90);
      m "op_s.p99" "s" (percentile lat 0.99);
      m "ok_ratio" "ratio" (1.0 -. ratio t.failed n);
      m "rss_peak_mb" "MB" rss;
    ]
  in
  let correct =
    t.failed = 0 && mix_ok && env.warm_ok && code = 0 && !exits_ok
  in
  emit ~workload:"serve-mixed" ~correct ~attempted:n ~failed:t.failed ~notes metrics

(* ---------- traced run ---------- *)

(* A fixed stream, so the traced and the plain server do the same work. *)
let traced_requests = 2000

let run_traced ~step ~seed =
  let kinds, hot_refs, pool_refs = load_inputs () in
  let plan = make_plan ~seed kinds in
  ensure_out_dir ();
  let metrics_file = Filename.concat out_dir "serve-metrics.json" in
  let trace_file = Filename.concat out_dir "serve-trace.jsonl" in
  let one ?trace ?metrics () =
    let env = setup ~step ?trace ?metrics kinds hot_refs in
    let h0, m0 = stats env.conns.(0) in
    let gc0 = Gc.quick_stat () in
    let samples, wall = stream env plan ~deadline:infinity ~limit:traced_requests in
    let gc1 = Gc.quick_stat () in
    let h1, m1 = stats env.conns.(0) in
    let code = stop_server env.srv env.conns.(0) in
    Array.iter close_conn env.conns;
    let t = tally env plan ~hot_refs ~pool_refs samples in
    let ok =
      env.warm_ok && code = 0 && t.failed = 0 && t.hits = t.planned_hits
      && t.misses = t.planned_misses && h1 - h0 = t.hits && m1 - m0 = t.misses
    in
    (samples, wall, t, ok, (gc0, gc1))
  in
  let samples, plain_s, t, plain_ok, (gc0, gc1) = one ~metrics:metrics_file () in
  let _, traced_s, _, traced_ok, _ = one ~trace:trace_file () in
  let n = List.length samples in
  let lat sel = List.filter_map (fun s -> if sel s then Some s.latency else None) samples in
  let server_overhead =
    List.filter_map
      (fun s ->
        match records s.resps with
        | Some (summary, _) -> Some (s.latency -. summary.Api.total_cpu_s)
        | None -> None)
      samples
  in
  let parse_us =
    per_call_us 20 (fun s -> ignore (Api.parse_request_line s.line)) samples
  in
  let responses = List.concat_map (fun s -> s.resps) samples in
  let encode_us =
    per_call_us 5 (fun r -> ignore (Json.to_string (Api.response_to_json r))) responses
  in
  (* the server's registry, published at exit *)
  let reg = Json.of_string (read_file metrics_file) in
  let counter name =
    float_of_int
      (Option.value ~default:0
         (Json.to_int_opt (Json.member name (Json.member "counters" reg))))
  in
  let solve_s =
    Option.value ~default:0.0
      (Json.to_float_opt
         (Json.member "sum" (Json.member "sat.solve_s" (Json.member "histograms" reg))))
  in
  (* the server's own spans *)
  let spans = Hashtbl.create 16 in
  List.iter
    (fun line ->
      if line <> "" then begin
        let j = Json.of_string line in
        match Json.to_string_opt (Json.member "name" j) with
        | Some name ->
            let f k = Option.value ~default:0.0 (Json.to_float_opt (Json.member k j)) in
            let d, s, c = Option.value ~default:(0.0, 0.0, 0) (Hashtbl.find_opt spans name) in
            Hashtbl.replace spans name (d +. f "dur_s", s +. f "self_s", c + 1)
        | None -> ()
      end)
    (String.split_on_char '\n' (read_file trace_file));
  let span_dur name = match Hashtbl.find_opt spans name with Some (d, _, _) -> d | None -> 0.0 in
  let span_self name = match Hashtbl.find_opt spans name with Some (_, s, _) -> s | None -> 0.0 in
  let span_count name = match Hashtbl.find_opt spans name with Some (_, _, c) -> c | None -> 0 in
  let per_op x = x /. float_of_int (max 1 n) in
  let values =
    [
      ("mg.find_s", span_dur "mg.find");
      ("mg.sat_calls", counter "mg.sat_calls");
      ( "mg.seed_yield",
        if counter "mg.seeds_tried" > 0.0 then counter "mg.decomposed" /. counter "mg.seeds_tried"
        else 0.0 );
      ("cegar.optimize_s", span_dur "qbf.optimize");
      ("cegar.refinements", counter "qbf.refinements");
      ("cegar.queries", counter "qbf.queries");
      ("cegar.verify_s", span_self "sat.verify");
      ("cegar.abstraction_s", span_self "sat.abstraction");
      ( "cegar.verify_refute_ratio",
        ratio (int_of_float (counter "qbf.refinements")) (span_count "sat.verify") );
      ("sat.calls", counter "sat.calls");
      ("sat.props", counter "sat.propagations");
      ("sat.conflicts", counter "sat.conflicts");
      ("sat.props_per_s", if solve_s > 0.0 then counter "sat.propagations" /. solve_s else 0.0);
      ("cache.hit_ratio", ratio t.hits (t.hits + t.misses));
      ("cache.hits", float_of_int t.hits);
      ("cache.misses", float_of_int t.misses);
      ("cache.hit.op_s.p50", median (lat (is_hit plan)));
      ("cache.miss.op_s.p50", median (lat (fun s -> not (is_hit plan s))));
      ("api.parse_us", parse_us);
      ("api.encode_us", encode_us);
      ("server.overhead_s.p50", median server_overhead);
      ("server.rejected", float_of_int t.rejected);
      ("gc.minor_words", per_op (gc1.Gc.minor_words -. gc0.Gc.minor_words));
      ( "gc.major_collections",
        per_op (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)) );
      ("obs.trace_overhead", traced_s /. plain_s);
    ]
  in
  let notes =
    [
      Printf.sprintf "requests=%d per server; plain_s=%.3f traced_s=%.3f" n plain_s traced_s;
      Printf.sprintf "cache hits=%d (planned %d) misses=%d (planned %d): planned hit ratio %.6f"
        t.hits t.planned_hits t.misses t.planned_misses
        (ratio t.planned_hits (t.planned_hits + t.planned_misses));
      "span and counter figures cover the server's whole life (warm-up included)";
    ]
  in
  emit ~workload:"serve-mixed" ~correct:(plain_ok && traced_ok) ~attempted:n ~failed:t.failed
    ~notes (layer_metrics values)
