(* Hotpath profiles from span streams.

   A profile is a trie keyed by call path (the chain of span names from a
   root span down): each node aggregates every span instance that closed
   at exactly that path, across all domains of the run. Because the span
   runtime computes self time as dur minus instrumented-child time, the
   self times of a root's subtree partition the root's duration — so the
   share of wall-clock the profile attributes to named spans is a direct
   measure of instrumentation coverage, and profsmoke can gate on it. *)

type node = {
  pn_name : string;
  mutable pn_count : int;
  mutable pn_total_s : float;
  mutable pn_self_s : float;
  mutable pn_max_s : float;
  pn_children : (string, node) Hashtbl.t;
}

type t = {
  roots : node list;
  wall_s : float;
  attributed_s : float;
  n_spans : int;
  n_orphans : int;
  n_records : int;
}

let new_node name =
  {
    pn_name = name;
    pn_count = 0;
    pn_total_s = 0.0;
    pn_self_s = 0.0;
    pn_max_s = 0.0;
    pn_children = Hashtbl.create 4;
  }

(* Minimal per-span view, shared by the record-list and JSONL fronts. *)
type span = {
  sp_id : int;
  sp_parent : int option;
  sp_name : string;
  sp_dur : float;
  sp_self : float;
}

let build ~n_records spans =
  let by_id : (int, span) Hashtbl.t = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.sp_id s) spans;
  (* Path from root to [s], resolving parent links. A parent id that was
     never emitted (truncated trace, or a parent span still open when the
     sink closed) makes the span an orphan: it is grafted in as a root so
     its time still lands in the table, but counted so coverage reporting
     stays honest. Multi-domain traces are the normal case here — worker
     spans root at depth 0, so several genuine roots interleave. *)
  let n_orphans = ref 0 in
  let path_of s =
    let rec up s acc =
      match s.sp_parent with
      | None -> s.sp_name :: acc
      | Some pid -> begin
          match Hashtbl.find_opt by_id pid with
          | Some p -> up p (s.sp_name :: acc)
          | None ->
              incr n_orphans;
              s.sp_name :: acc
        end
    in
    up s []
  in
  let root_tbl : (string, node) Hashtbl.t = Hashtbl.create 4 in
  let root_order = ref [] in
  let wall = ref 0.0 and attributed = ref 0.0 and n_spans = ref 0 in
  List.iter
    (fun s ->
      incr n_spans;
      attributed := !attributed +. s.sp_self;
      let path = path_of s in
      let top = List.hd path in
      let root =
        match Hashtbl.find_opt root_tbl top with
        | Some n -> n
        | None ->
            let n = new_node top in
            Hashtbl.replace root_tbl top n;
            root_order := n :: !root_order;
            n
      in
      let node =
        List.fold_left
          (fun parent name ->
            match Hashtbl.find_opt parent.pn_children name with
            | Some n -> n
            | None ->
                let n = new_node name in
                Hashtbl.replace parent.pn_children name n;
                n)
          root (List.tl path)
      in
      node.pn_count <- node.pn_count + 1;
      node.pn_total_s <- node.pn_total_s +. s.sp_dur;
      node.pn_self_s <- node.pn_self_s +. s.sp_self;
      if s.sp_dur > node.pn_max_s then node.pn_max_s <- s.sp_dur;
      (* roots (including orphan grafts) define the wall-clock envelope:
         a span whose parent is unknown is, as far as the trace can tell,
         top-level work *)
      match s.sp_parent with
      | None -> wall := !wall +. s.sp_dur
      | Some pid -> if not (Hashtbl.mem by_id pid) then wall := !wall +. s.sp_dur)
    spans;
  let roots =
    List.rev !root_order
    |> List.sort (fun a b -> compare b.pn_total_s a.pn_total_s)
  in
  {
    roots;
    wall_s = !wall;
    attributed_s = !attributed;
    n_spans = !n_spans;
    n_orphans = !n_orphans;
    n_records;
  }

let of_records records =
  build ~n_records:(List.length records)
    (List.filter_map
       (fun (r : Obs.record) ->
         match r.Obs.r_kind with
         | `Span ->
             Some
               {
                 sp_id = r.Obs.r_id;
                 sp_parent = r.Obs.r_parent;
                 sp_name = r.Obs.r_name;
                 sp_dur = r.Obs.r_dur;
                 sp_self = r.Obs.r_self;
               }
         | `Event -> None)
       records)

let span_of_line line =
  let j = Json.of_string line in
  match Json.(to_string_opt (member "type" j)) with
  | Some "span" ->
      let get_f k =
        match Json.(to_float_opt (member k j)) with Some f -> f | None -> 0.0
      in
      Some
        {
          sp_id =
            (match Json.(to_int_opt (member "id" j)) with
            | Some i -> i
            | None -> 0);
          sp_parent = Json.(to_int_opt (member "parent" j));
          sp_name =
            (match Json.(to_string_opt (member "name" j)) with
            | Some n -> n
            | None -> "?");
          sp_dur = get_f "dur_s";
          sp_self = get_f "self_s";
        }
  | _ -> None

let of_file path =
  let ic =
    try open_in path
    with Sys_error msg -> failwith ("Profile.of_file: " ^ msg)
  in
  let spans = ref [] in
  let n_records = ref 0 in
  (try
     let lineno = ref 0 in
     while true do
       let line = input_line ic in
       incr lineno;
       if String.trim line <> "" then begin
         incr n_records;
         match span_of_line line with
         | Some s -> spans := s :: !spans
         | None -> ()
         | exception Failure msg ->
             close_in ic;
             failwith (Printf.sprintf "%s:%d: %s" path !lineno msg)
       end
     done
   with End_of_file -> close_in ic);
  build ~n_records:!n_records (List.rev !spans)

let collector () =
  let records = ref [] in
  (* sink delivery is already serialized by the Obs emit mutex, so a
     plain accumulator is race-free; [get] is for after the run *)
  let sink =
    Obs.callback_sink (fun (r : Obs.record) ->
        match r.Obs.r_kind with `Span -> records := r :: !records | `Event -> ())
  in
  (sink, fun () -> of_records (List.rev !records))

let coverage t = if t.wall_s > 0.0 then t.attributed_s /. t.wall_s else 1.0

let header t =
  Printf.sprintf "profile: %d spans, %.3fs wall, %.1f%% attributed%s"
    t.n_spans t.wall_s
    (100.0 *. coverage t)
    (if t.n_orphans > 0 then Printf.sprintf " (%d orphaned)" t.n_orphans
     else "")

let sorted_children n =
  Hashtbl.fold (fun _ c acc -> c :: acc) n.pn_children []
  |> List.sort (fun a b -> compare b.pn_total_s a.pn_total_s)

let render ?max_depth t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (header t);
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "%10s %10s %8s  %s\n" "total(s)" "self(s)" "count" "span");
  let keep depth =
    match max_depth with None -> true | Some d -> depth < d
  in
  let rec walk depth n =
    if keep depth then begin
      Buffer.add_string buf
        (Printf.sprintf "%10.4f %10.4f %8d  %s%s\n" n.pn_total_s n.pn_self_s
           n.pn_count
           (String.make (2 * depth) ' ')
           n.pn_name);
      List.iter (walk (depth + 1)) (sorted_children n)
    end
  in
  List.iter (walk 0) t.roots;
  Buffer.contents buf

(* Flattened per-path rows, hottest self time first. *)
let hot_rows t =
  let rows = ref [] in
  let rec walk path n =
    let path = path @ [ n.pn_name ] in
    if n.pn_count > 0 then
      rows := (String.concat ";" path, n.pn_count, n.pn_total_s, n.pn_self_s) :: !rows;
    List.iter (walk path) (sorted_children n)
  in
  List.iter (walk []) t.roots;
  List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a) !rows

let render_hot ?(limit = 25) t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (header t);
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "%10s %7s %10s %8s  %s\n" "self(s)" "self%" "total(s)"
       "count" "path");
  let denom = if t.wall_s > 0.0 then t.wall_s else 1.0 in
  let rows = hot_rows t in
  List.iteri
    (fun i (path, count, total, self) ->
      if i < limit then
        Buffer.add_string buf
          (Printf.sprintf "%10.4f %6.1f%% %10.4f %8d  %s\n" self
             (100.0 *. self /. denom)
             total count path))
    rows;
  Buffer.contents buf

(* Folded-stack format (flamegraph.pl / speedscope): one line per path,
   weight = aggregate self time in integer microseconds. *)
let to_folded t =
  let buf = Buffer.create 1024 in
  let rec walk path n =
    let path = path @ [ n.pn_name ] in
    let us = int_of_float (Float.round (n.pn_self_s *. 1e6)) in
    if n.pn_count > 0 && us > 0 then
      Buffer.add_string buf
        (Printf.sprintf "%s %d\n" (String.concat ";" path) us);
    List.iter (walk path) (sorted_children n)
  in
  List.iter (walk []) t.roots;
  Buffer.contents buf
