(* Log-scale bucket layout: [buckets_per_decade] buckets per power of ten
   between 10^lo_exp and 10^hi_exp, plus an underflow bucket (index 0) and
   an overflow bucket (last index). Bucket [1 + i] covers
   [10^(lo_exp + i/bpd), 10^(lo_exp + (i+1)/bpd)).

   Domain-safety: counters and gauges are atomics, histograms carry their
   own mutex, and the find-or-create registries are guarded by a global
   mutex. Hot-path updates ([inc]/[add]/[observe]) never touch the
   registry lock. *)

let lo_exp = -7.0

let hi_exp = 3.0

let buckets_per_decade = 10

let n_core = int_of_float ((hi_exp -. lo_exp) *. float_of_int buckets_per_decade)

let n_buckets = n_core + 2

type counter = { c_name : string; c_val : int Atomic.t }

type gauge = { g_name : string; g_val : float Atomic.t }

type histogram = {
  h_name : string;
  h_mu : Mutex.t;
  buckets : int array;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

let registry_mu = Mutex.create ()

let counters_tbl : (string, counter) Hashtbl.t = Hashtbl.create 32

let gauges_tbl : (string, gauge) Hashtbl.t = Hashtbl.create 16

let histograms_tbl : (string, histogram) Hashtbl.t = Hashtbl.create 16

let find_or_create tbl name make =
  Mutex.protect registry_mu (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some v -> v
      | None ->
          let v = make () in
          Hashtbl.replace tbl name v;
          v)

let counter name =
  find_or_create counters_tbl name (fun () ->
      { c_name = name; c_val = Atomic.make 0 })

let inc c = Atomic.incr c.c_val

let add c n = ignore (Atomic.fetch_and_add c.c_val n)

let value c = Atomic.get c.c_val

let gauge name =
  find_or_create gauges_tbl name (fun () ->
      { g_name = name; g_val = Atomic.make 0.0 })

let set g v = Atomic.set g.g_val v

let gauge_value g = Atomic.get g.g_val

let histogram name =
  find_or_create histograms_tbl name (fun () ->
      {
        h_name = name;
        h_mu = Mutex.create ();
        buckets = Array.make n_buckets 0;
        h_count = 0;
        h_sum = 0.0;
        h_min = infinity;
        h_max = neg_infinity;
      })

(* ---------- deep-telemetry switch ---------- *)

(* One boolean read guards every expensive probe (LBD computation,
   per-phase timers, per-iteration CEGAR series). Reads are a plain load;
   the flag is flipped from the main domain before workers start. *)
let deep_flag =
  ref
    (match Sys.getenv_opt "STEP_DEEP_TELEMETRY" with
    | Some ("1" | "true" | "yes" | "on") -> true
    | Some _ | None -> false)

let deep () = !deep_flag

let set_deep b = deep_flag := b

(* ---------- buckets ---------- *)

let bucket_index v =
  if v <= 0.0 then 0
  else begin
    let i =
      int_of_float
        (Float.floor ((Float.log10 v -. lo_exp) *. float_of_int buckets_per_decade))
    in
    if i < 0 then 0 else if i >= n_core then n_buckets - 1 else i + 1
  end

(* geometric midpoint of core bucket [1 + i] *)
let bucket_mid idx =
  Float.pow 10.0
    (lo_exp
    +. ((float_of_int (idx - 1) +. 0.5) /. float_of_int buckets_per_decade))

let observe h v =
  Mutex.protect h.h_mu (fun () ->
      let i = bucket_index v in
      h.buckets.(i) <- h.buckets.(i) + 1;
      h.h_count <- h.h_count + 1;
      h.h_sum <- h.h_sum +. v;
      if v < h.h_min then h.h_min <- v;
      if v > h.h_max then h.h_max <- v)

type histogram_stats = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

(* ---------- mergeable snapshots ---------- *)

(* A histogram snapshot is a plain value: it can cross domains, be merged
   with another snapshot of the same bucket layout (per-domain or per-run
   histograms combine losslessly, bucket by bucket), and still answer
   quantile queries. *)
type histogram_snapshot = {
  s_buckets : int array;
  s_count : int;
  s_sum : float;
  s_min : float;
  s_max : float;
}

let empty_snapshot () =
  {
    s_buckets = Array.make n_buckets 0;
    s_count = 0;
    s_sum = 0.0;
    s_min = infinity;
    s_max = neg_infinity;
  }

let export h =
  Mutex.protect h.h_mu (fun () ->
      {
        s_buckets = Array.copy h.buckets;
        s_count = h.h_count;
        s_sum = h.h_sum;
        s_min = h.h_min;
        s_max = h.h_max;
      })

let merge a b =
  if Array.length a.s_buckets <> Array.length b.s_buckets then
    invalid_arg "Metrics.merge: bucket layouts differ";
  {
    s_buckets = Array.mapi (fun i n -> n + b.s_buckets.(i)) a.s_buckets;
    s_count = a.s_count + b.s_count;
    s_sum = a.s_sum +. b.s_sum;
    s_min = Float.min a.s_min b.s_min;
    s_max = Float.max a.s_max b.s_max;
  }

let snapshot_quantile s q =
  if s.s_count = 0 then nan
  else begin
    let rank = Float.max 1.0 (Float.round (q *. float_of_int s.s_count)) in
    let rank = int_of_float rank in
    let idx = ref 0 and cum = ref 0 in
    (try
       for i = 0 to n_buckets - 1 do
         cum := !cum + s.s_buckets.(i);
         if !cum >= rank then begin
           idx := i;
           raise Exit
         end
       done;
       idx := n_buckets - 1
     with Exit -> ());
    let rep =
      if !idx = 0 then s.s_min
      else if !idx = n_buckets - 1 then s.s_max
      else bucket_mid !idx
    in
    Float.min s.s_max (Float.max s.s_min rep)
  end

let snapshot_stats s =
  if s.s_count = 0 then
    {
      count = 0;
      sum = 0.0;
      min = nan;
      max = nan;
      p50 = nan;
      p90 = nan;
      p99 = nan;
    }
  else
    {
      count = s.s_count;
      sum = s.s_sum;
      min = s.s_min;
      max = s.s_max;
      p50 = snapshot_quantile s 0.50;
      p90 = snapshot_quantile s 0.90;
      p99 = snapshot_quantile s 0.99;
    }

let quantile h q = snapshot_quantile (export h) q

let stats h = snapshot_stats (export h)

(* ---------- registry-wide snapshot ---------- *)

(* One full view of the registry under a single acquisition of the
   registry lock: a metric registered between two walks can never be in
   one section of a report and missing from another, and a report started
   after new counters appear always carries them ([stats --json]'s
   "registered after the first flush" hole). Histogram cells are drained
   under their own mutex while the registry lock pins the name set. *)
type snapshot = {
  snap_counters : (string * int) list;
  snap_gauges : (string * float) list;
  snap_histograms : (string * histogram_snapshot) list;
}

let sorted_assoc l = List.sort (fun (a, _) (b, _) -> compare a b) l

let snapshot () =
  Mutex.protect registry_mu (fun () ->
      {
        snap_counters =
          Hashtbl.fold (fun n c acc -> (n, value c) :: acc) counters_tbl []
          |> sorted_assoc;
        snap_gauges =
          Hashtbl.fold (fun n g acc -> (n, gauge_value g) :: acc) gauges_tbl []
          |> sorted_assoc;
        snap_histograms =
          Hashtbl.fold (fun n h acc -> (n, export h) :: acc) histograms_tbl []
          |> sorted_assoc;
      })

let counters () = (snapshot ()).snap_counters

let gauges () = (snapshot ()).snap_gauges

let histograms () =
  List.map (fun (n, s) -> (n, snapshot_stats s)) (snapshot ()).snap_histograms

let handles tbl =
  Mutex.protect registry_mu (fun () ->
      Hashtbl.fold (fun _ v acc -> v :: acc) tbl [])

let reset () =
  List.iter (fun c -> Atomic.set c.c_val 0) (handles counters_tbl);
  List.iter (fun g -> Atomic.set g.g_val 0.0) (handles gauges_tbl);
  List.iter
    (fun h ->
      Mutex.protect h.h_mu (fun () ->
          Array.fill h.buckets 0 n_buckets 0;
          h.h_count <- 0;
          h.h_sum <- 0.0;
          h.h_min <- infinity;
          h.h_max <- neg_infinity))
    (handles histograms_tbl)

(* ---------- rendering ---------- *)

let render () =
  let snap = snapshot () in
  let buf = Buffer.create 512 in
  let cs = List.filter (fun (_, v) -> v <> 0) snap.snap_counters in
  if cs <> [] then begin
    Buffer.add_string buf "counters:\n";
    let w =
      List.fold_left (fun acc (n, _) -> max acc (String.length n)) 0 cs
    in
    List.iter
      (fun (n, v) -> Buffer.add_string buf (Printf.sprintf "  %-*s %d\n" w n v))
      cs
  end;
  let gs = snap.snap_gauges in
  if gs <> [] then begin
    Buffer.add_string buf "gauges:\n";
    let w =
      List.fold_left (fun acc (n, _) -> max acc (String.length n)) 0 gs
    in
    List.iter
      (fun (n, v) ->
        Buffer.add_string buf (Printf.sprintf "  %-*s %g\n" w n v))
      gs
  end;
  let hs =
    List.filter_map
      (fun (n, s) ->
        let s = snapshot_stats s in
        if s.count > 0 then Some (n, s) else None)
      snap.snap_histograms
  in
  if hs <> [] then begin
    Buffer.add_string buf "histograms:\n";
    let w =
      List.fold_left (fun acc (n, _) -> max acc (String.length n)) 0 hs
    in
    List.iter
      (fun (n, s) ->
        Buffer.add_string buf
          (Printf.sprintf
             "  %-*s count=%-8d sum=%-10.4g p50=%-9.3g p90=%-9.3g p99=%-9.3g \
              max=%.3g\n"
             w n s.count s.sum s.p50 s.p90 s.p99 s.max))
      hs
  end;
  Buffer.contents buf

let to_json () =
  let snap = snapshot () in
  let obj_of pairs f = Json.Obj (List.map (fun (n, v) -> (n, f v)) pairs) in
  Json.Obj
    [
      ("counters", obj_of snap.snap_counters (fun v -> Json.Int v));
      ("gauges", obj_of snap.snap_gauges (fun v -> Json.Float v));
      ( "histograms",
        obj_of snap.snap_histograms (fun s ->
            let s = snapshot_stats s in
            Json.Obj
              [
                ("count", Json.Int s.count);
                ("sum", Json.Float s.sum);
                ("min", Json.Float s.min);
                ("max", Json.Float s.max);
                ("p50", Json.Float s.p50);
                ("p90", Json.Float s.p90);
                ("p99", Json.Float s.p99);
              ]) );
    ]

(* ---------- Prometheus exposition ---------- *)

(* Text format 0.0.4. Dots become underscores and every family gets a
   [step_] prefix; histograms are rendered as summaries (quantile series
   plus _sum/_count) since the log-scale buckets track quantiles, not
   cumulative le-buckets. *)
let prom_name name =
  let b = Buffer.create (String.length name + 5) in
  Buffer.add_string b "step_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let prom_float v =
  if Float.is_nan v then "NaN"
  else if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else Printf.sprintf "%.9g" v

let expose () =
  let snap = snapshot () in
  let buf = Buffer.create 1024 in
  List.iter
    (fun (n, v) ->
      let pn = prom_name n in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n%s %d\n" pn pn v))
    snap.snap_counters;
  List.iter
    (fun (n, v) ->
      let pn = prom_name n in
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s gauge\n%s %s\n" pn pn (prom_float v)))
    snap.snap_gauges;
  List.iter
    (fun (n, s) ->
      let pn = prom_name n in
      let st = snapshot_stats s in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s summary\n" pn);
      List.iter
        (fun (q, v) ->
          Buffer.add_string buf
            (Printf.sprintf "%s{quantile=\"%s\"} %s\n" pn q (prom_float v)))
        [ ("0.5", st.p50); ("0.9", st.p90); ("0.99", st.p99) ];
      Buffer.add_string buf
        (Printf.sprintf "%s_sum %s\n%s_count %d\n" pn (prom_float st.sum) pn
           st.count))
    snap.snap_histograms;
  Buffer.contents buf

(* ---------- snapshot files ---------- *)

(* Atomic publish (temp file + rename in the target directory): a reader
   polling the file never sees a torn snapshot, and an interrupted run
   never leaves one behind. *)
let dump_file ~format path =
  let text =
    match format with
    | `Prometheus -> expose ()
    | `Json -> Json.to_string (to_json ()) ^ "\n"
  in
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir "metrics-" ".tmp" in
  let oc = open_out tmp in
  (try
     output_string oc text;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

(* The periodic writer is a systhread: it needs no parallelism, only to
   be scheduled while solver calls run, which the runtime's tick
   guarantees; a domain would instead slow every minor GC of the run.
   Stop is cooperative (atomic flag polled every ~50 ms) and always
   publishes one final snapshot, so even [interval_s] longer than the run
   leaves a complete file behind. *)
let start_periodic_dump ~path ~interval_s ~format () =
  if not (Float.is_finite interval_s) || interval_s <= 0.0 then
    invalid_arg "Metrics.start_periodic_dump: interval must be positive";
  let stop = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        let tick = Float.min interval_s 0.05 in
        let rec wait remaining =
          if (not (Atomic.get stop)) && remaining > 0.0 then begin
            Unix.sleepf (Float.min tick remaining);
            wait (remaining -. tick)
          end
        in
        let rec loop () =
          wait interval_s;
          if not (Atomic.get stop) then begin
            (try dump_file ~format path with Sys_error _ -> ());
            loop ()
          end
        in
        loop ())
      ()
  in
  fun () ->
    Atomic.set stop true;
    Thread.join th;
    dump_file ~format path
