type row = {
  name : string;
  count : int;
  total_s : float;
  self_s : float;
  max_s : float;
}

type t = {
  rows : row list;
  wall_s : float;
  n_records : int;
  n_orphans : int;
  contexts : (string * string * float) list;
}

(* Every figure is read off {!Profile}'s call-path trie, so [step trace]
   and [step profile] share one JSONL reader and one parent resolution: a
   span whose parent never reached the file counts as a root in both. *)

let engine_prefixes = [ "qbf."; "cegar."; "mg."; "ljh."; "pipeline." ]

let is_engine name =
  List.exists (fun p -> String.starts_with ~prefix:p name) engine_prefixes

let of_file path =
  let p = Profile.of_file path in
  let tbl : (string, row ref) Hashtbl.t = Hashtbl.create 32 in
  let ctx_tbl : (string * string, float ref) Hashtbl.t = Hashtbl.create 16 in
  (* [anc] is the nearest engine span above [n], or "(root)" *)
  let rec walk anc (n : Profile.node) =
    (match Hashtbl.find_opt tbl n.pn_name with
    | Some r ->
        r :=
          {
            !r with
            count = !r.count + n.pn_count;
            total_s = !r.total_s +. n.pn_total_s;
            self_s = !r.self_s +. n.pn_self_s;
            max_s = Float.max !r.max_s n.pn_max_s;
          }
    | None ->
        Hashtbl.replace tbl n.pn_name
          (ref
             {
               name = n.pn_name;
               count = n.pn_count;
               total_s = n.pn_total_s;
               self_s = n.pn_self_s;
               max_s = n.pn_max_s;
             }));
    if String.starts_with ~prefix:"sat." n.pn_name then begin
      match Hashtbl.find_opt ctx_tbl (anc, n.pn_name) with
      | Some r -> r := !r +. n.pn_total_s
      | None -> Hashtbl.replace ctx_tbl (anc, n.pn_name) (ref n.pn_total_s)
    end;
    let anc = if is_engine n.pn_name then n.pn_name else anc in
    Hashtbl.iter (fun _ c -> walk anc c) n.pn_children
  in
  List.iter (walk "(root)") p.Profile.roots;
  let rows =
    Hashtbl.fold (fun _ r acc -> !r :: acc) tbl []
    |> List.sort (fun a b -> compare b.self_s a.self_s)
  in
  let contexts =
    Hashtbl.fold (fun (a, n) r acc -> (a, n, !r) :: acc) ctx_tbl []
    |> List.sort (fun (a1, n1, _) (a2, n2, _) -> compare (a1, n1) (a2, n2))
  in
  {
    rows;
    wall_s = p.Profile.wall_s;
    n_records = p.Profile.n_records;
    n_orphans = p.Profile.n_orphans;
    contexts;
  }

let render t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "trace: %d records, %.3fs wall (root spans%s)\n"
       t.n_records t.wall_s
       (if t.n_orphans > 0 then Printf.sprintf ", %d orphaned" t.n_orphans
        else ""));
  if t.rows <> [] then begin
    let w =
      List.fold_left (fun acc r -> max acc (String.length r.name)) 4 t.rows
    in
    Buffer.add_string buf
      (Printf.sprintf "%-*s %8s %10s %10s %7s %10s\n" w "span" "count"
         "total(s)" "self(s)" "self%" "max(s)");
    let denom = if t.wall_s > 0.0 then t.wall_s else 1.0 in
    List.iter
      (fun r ->
        Buffer.add_string buf
          (Printf.sprintf "%-*s %8d %10.4f %10.4f %6.1f%% %10.4f\n" w r.name
             r.count r.total_s r.self_s
             (100.0 *. r.self_s /. denom)
             r.max_s))
      t.rows
  end;
  if t.contexts <> [] then begin
    Buffer.add_string buf "\nSAT time by engine context:\n";
    let sat_total =
      List.fold_left (fun acc (_, _, s) -> acc +. s) 0.0 t.contexts
    in
    let denom = if sat_total > 0.0 then sat_total else 1.0 in
    List.iter
      (fun (anc, name, s) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-24s %-18s %10.4fs %6.1f%%\n" anc name s
             (100.0 *. s /. denom)))
      t.contexts
  end;
  Buffer.contents buf

(* Self-time is the signal worth gating on: total time double-counts
   nested spans and count deltas are expected whenever inputs change.
   The absolute floor keeps sub-millisecond jitter from flagging rows. *)
let abs_floor_s = 0.001

let diff ?(threshold = 0.10) base cur =
  let tbl : (string, row option * row option) Hashtbl.t = Hashtbl.create 32 in
  List.iter (fun r -> Hashtbl.replace tbl r.name (Some r, None)) base.rows;
  List.iter
    (fun r ->
      match Hashtbl.find_opt tbl r.name with
      | Some (b, _) -> Hashtbl.replace tbl r.name (b, Some r)
      | None -> Hashtbl.replace tbl r.name (None, Some r))
    cur.rows;
  let zero name = { name; count = 0; total_s = 0.0; self_s = 0.0; max_s = 0.0 } in
  let rows =
    Hashtbl.fold
      (fun name (b, c) acc ->
        let b = Option.value b ~default:(zero name) in
        let c = Option.value c ~default:(zero name) in
        (name, b, c) :: acc)
      tbl []
    |> List.sort (fun (_, b1, c1) (_, b2, c2) ->
           compare
             (Float.abs (c2.self_s -. b2.self_s))
             (Float.abs (c1.self_s -. b1.self_s)))
  in
  let buf = Buffer.create 1024 in
  let n_sig = ref 0 in
  Buffer.add_string buf
    (Printf.sprintf "wall: %.3fs -> %.3fs (%+.1f%%)\n" base.wall_s cur.wall_s
       (if base.wall_s > 0.0 then
          100.0 *. (cur.wall_s -. base.wall_s) /. base.wall_s
        else 0.0));
  let w =
    List.fold_left (fun acc (n, _, _) -> max acc (String.length n)) 4 rows
  in
  Buffer.add_string buf
    (Printf.sprintf "  %-*s %7s %7s %10s %10s %10s\n" w "span" "count"
       "Δcount" "self(s)" "Δself(s)" "Δself%");
  List.iter
    (fun (name, b, c) ->
      let d_self = c.self_s -. b.self_s in
      let only_one = b.count = 0 || c.count = 0 in
      let significant =
        (only_one && Float.abs d_self > abs_floor_s)
        || Float.abs d_self > Float.max abs_floor_s (threshold *. b.self_s)
      in
      if significant then incr n_sig;
      let pct =
        if b.self_s > 0.0 then
          Printf.sprintf "%+9.1f%%" (100.0 *. d_self /. b.self_s)
        else if c.self_s > 0.0 then "      new!"
        else "         -"
      in
      Buffer.add_string buf
        (Printf.sprintf "%s %-*s %7d %+7d %10.4f %+10.4f %s\n"
           (if significant then "!" else " ")
           w name c.count (c.count - b.count) c.self_s d_self pct))
    rows;
  Buffer.add_string buf
    (Printf.sprintf "%d significant deltas (threshold %.0f%%)\n" !n_sig
       (100.0 *. threshold));
  (Buffer.contents buf, !n_sig)
