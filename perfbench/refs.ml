(* Reference answers stored with the benchmark, and the answer checks run
   on every operation.

   A reference holds, per primary output, the verdict, the optimum the
   method minimizes (|XC| for QD, |XC| + |XA| - |XB| for QDB; none for
   MG, whose partitions are not optimal) and, for auto-gate runs, the
   chosen gate. References are built once by [bench.exe --build-refs]
   from certified runs whose certificates pass the independent lib/cert
   checker, cross-checked against [Exhaustive.best] on small supports
   and against the BDD oracle; they are never copied from an unchecked
   run. *)

module Json = Step_obs.Json
module Method = Step_core.Method
module Gate = Step_core.Gate
module Partition = Step_core.Partition
module Problem = Step_core.Problem

type answer = { dec : bool; k : int option; gate : string option }

type table = (string, answer array) Hashtbl.t

let key ~circuit ~method_ ~gate = Printf.sprintf "%s|%s|%s" circuit method_ gate

(* The integer the method minimizes, on a canonical partition. *)
let k_of method_ part =
  match method_ with
  | Method.Qd -> Some (Partition.disjointness_k part)
  | Method.Qdb -> Some (Partition.combined_k part)
  | Method.Qb -> Some (Partition.balancedness_k part)
  | Method.Mg | Method.Ljh -> None

(* Same, from the sizes a wire record carries. *)
let k_of_sizes method_ ~xa ~xb ~xc =
  match method_ with
  | Method.Qd -> Some xc
  | Method.Qdb -> Some (xc + xa - xb)
  | Method.Qb -> Some (xa - xb)
  | Method.Mg | Method.Ljh -> None

let answer_to_json a =
  Json.Obj
    ([ ("d", Json.Bool a.dec) ]
    @ (match a.k with Some k -> [ ("k", Json.Int k) ] | None -> [])
    @ match a.gate with Some g -> [ ("g", Json.String g) ] | None -> [])

let answer_of_json j =
  {
    dec = Json.member "d" j = Json.Bool true;
    k = Json.to_int_opt (Json.member "k" j);
    gate = Json.to_string_opt (Json.member "g" j);
  }

let path name = Filename.concat "perfbench/refs" (name ^ ".json")

let load name : table =
  let t = Hashtbl.create 64 in
  (match Json.of_string (Util.read_file (path name)) with
  | Json.Obj entries ->
      List.iter
        (fun (k, v) ->
          Hashtbl.replace t k
            (Array.of_list (List.map answer_of_json (Json.to_list v))))
        entries
  | _ -> failwith ("malformed reference file " ^ path name));
  t

let save name entries =
  let oc = open_out_bin (path name) in
  output_string oc "{\n";
  List.iteri
    (fun i (k, answers) ->
      if i > 0 then output_string oc ",\n";
      output_string oc
        (Json.to_string (Json.String k)
        ^ ":"
        ^ Json.to_string
            (Json.List (Array.to_list (Array.map answer_to_json answers)))))
    entries;
  output_string oc "\n}\n";
  close_out oc

let find (t : table) k =
  match Hashtbl.find_opt t k with
  | Some a -> a
  | None -> failwith ("no reference answer for " ^ k)

(* ---------- the independent oracle ---------- *)

(* The BDD oracle, with room for the wide multiplexer cones of the
   Figure 1 population. *)
let oracle p gate part =
  Step_bdd.Bidec.decomposable ~max_nodes:2_000_000 p gate part = Some true

(* BDD check of a returned partition. Every partition is checked; equal
   answers to the same cone ([cone] names it together with its input
   numbering) are checked once. *)
let oracle_memo : (string, bool) Hashtbl.t = Hashtbl.create 256

let bdd_ok ~cone (p : Problem.t) gate part =
  let memo_key =
    Printf.sprintf "%s|%s|%s" cone (Gate.to_string gate) (Partition.to_string part)
  in
  match Hashtbl.find_opt oracle_memo memo_key with
  | Some ok -> ok
  | None ->
      let ok = oracle p gate part in
      Hashtbl.replace oracle_memo memo_key ok;
      ok

(* One engine row against its reference: a definite verdict equal to the
   reference, the same optimum and gate, a partition the BDD oracle
   accepts, and ([cert_ok]) any certificate accepted by the checker. *)
let check_row ~cone ~problem ~method_ ~gate ~cert_ok
    (r : Step_engine.Engine.po_result) (a : answer) =
  let module E = Step_engine.Engine in
  let status_ok =
    match E.po_status r with
    | "optimal" | "decomposed" | "indecomposable" -> true
    | _ -> false
  in
  status_ok && cert_ok
  &&
  match (r.E.partition, a.dec) with
  | None, false -> true
  | Some part, true ->
      (match a.k with Some k -> k_of method_ part = Some k | None -> true)
      && (match (a.gate, gate) with
         | Some g, Some g' -> g = Gate.to_string g'
         | Some _, None -> false
         | None, _ -> true)
      && bdd_ok ~cone (Lazy.force problem)
           (Option.value ~default:Gate.Or_gate gate)
           part
  | _ -> false
