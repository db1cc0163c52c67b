(* Contract tests for the low-level containers and the literal encoding —
   the plumbing everything else trusts. *)

module Veci = Step_util.Veci
module Idx_heap = Step_sat.Idx_heap
module Lit = Step_sat.Lit

(* ---------- Veci ---------- *)

let test_veci_push_pop () =
  let v = Veci.create () in
  Alcotest.(check bool) "empty" true (Veci.is_empty v);
  for i = 0 to 99 do
    Veci.push v i
  done;
  Alcotest.(check int) "length" 100 (Veci.length v);
  Alcotest.(check int) "get" 42 (Veci.get v 42);
  Alcotest.(check int) "last" 99 (Veci.last v);
  Alcotest.(check int) "pop" 99 (Veci.pop v);
  Alcotest.(check int) "length after pop" 99 (Veci.length v);
  Veci.set v 0 (-7);
  Alcotest.(check int) "set" (-7) (Veci.get v 0)

let test_veci_pop_empty () =
  let v = Veci.create () in
  match Veci.pop v with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_veci_shrink_clear () =
  let v = Veci.of_list [ 1; 2; 3; 4; 5 ] in
  Veci.shrink v 2;
  Alcotest.(check (list int)) "shrunk" [ 1; 2 ] (Veci.to_list v);
  Veci.clear v;
  Alcotest.(check int) "cleared" 0 (Veci.length v);
  (* capacity retained: pushes still work *)
  Veci.push v 9;
  Alcotest.(check (list int)) "reusable" [ 9 ] (Veci.to_list v)

let test_veci_remove_unordered () =
  let v = Veci.of_list [ 10; 20; 30; 40 ] in
  Veci.remove_unordered v 1;
  Alcotest.(check int) "length" 3 (Veci.length v);
  Alcotest.(check bool) "20 gone" false (Veci.mem 20 v);
  Alcotest.(check bool) "others kept" true
    (Veci.mem 10 v && Veci.mem 30 v && Veci.mem 40 v)

let test_veci_iter_exists_sort () =
  let v = Veci.of_list [ 3; 1; 2 ] in
  let sum = ref 0 in
  Veci.iter (fun x -> sum := !sum + x) v;
  Alcotest.(check int) "iter sum" 6 !sum;
  Alcotest.(check bool) "exists" true (Veci.exists (fun x -> x = 2) v);
  Veci.sort compare v;
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ] (Veci.to_list v);
  let c = Veci.copy v in
  Veci.push c 4;
  Alcotest.(check int) "copy independent" 3 (Veci.length v)

let test_veci_growth () =
  let v = Veci.create ~cap:1 () in
  for i = 0 to 9999 do
    Veci.push v i
  done;
  Alcotest.(check int) "big length" 10000 (Veci.length v);
  Alcotest.(check int) "spot" 7777 (Veci.get v 7777);
  Alcotest.(check int) "array" 10000 (Array.length (Veci.to_array v))

(* ---------- Idx_heap ---------- *)

let test_heap_extracts_in_order () =
  let score = Array.make 16 0.0 in
  let h = Idx_heap.create () in
  List.iteri
    (fun i s ->
      score.(i) <- s;
      Idx_heap.insert h score i)
    [ 3.0; 1.0; 4.0; 1.5; 9.0; 2.6 ];
  let order = List.init 6 (fun _ -> Idx_heap.remove_max h score) in
  Alcotest.(check (list int)) "descending by score" [ 4; 2; 0; 5; 3; 1 ] order;
  Alcotest.(check bool) "empty" true (Idx_heap.is_empty h)

let test_heap_no_duplicates () =
  let score = Array.init 8 float_of_int in
  let h = Idx_heap.create () in
  Idx_heap.insert h score 5;
  Idx_heap.insert h score 5;
  Alcotest.(check int) "size" 1 (Idx_heap.size h);
  Alcotest.(check bool) "in_heap" true (Idx_heap.in_heap h 5);
  ignore (Idx_heap.remove_max h score);
  Alcotest.(check bool) "removed" false (Idx_heap.in_heap h 5)

let test_heap_increased () =
  let score = Array.make 8 0.0 in
  let h = Idx_heap.create () in
  List.iter
    (fun i ->
      score.(i) <- float_of_int i;
      Idx_heap.insert h score i)
    [ 0; 1; 2; 3 ];
  (* bump key 0 above everything *)
  score.(0) <- 100.0;
  Idx_heap.increased h score 0;
  Alcotest.(check int) "max is 0" 0 (Idx_heap.remove_max h score)

let prop_heap_sorts =
  QCheck2.Test.make ~count:200 ~name:"heap removal is a sort"
    ~print:(fun l -> String.concat "," (List.map string_of_float l))
    QCheck2.Gen.(list_size (int_range 1 40) (float_range 0.0 100.0))
    (fun scores ->
      let scores = Array.of_list scores in
      let h = Idx_heap.create () in
      Array.iteri (fun i _ -> Idx_heap.insert h scores i) scores;
      let out = ref [] in
      while not (Idx_heap.is_empty h) do
        out := scores.(Idx_heap.remove_max h scores) :: !out
      done;
      (* removals came out descending, so !out is ascending *)
      !out = List.sort compare !out)

(* The solver's decisions are the heap's pop order, so the specialised
   heap must pop exactly what the closure heap it replaced pops, ties
   included: scores are small integers and bumps may add 0, so equal
   scores are common. *)
type heap_op = Insert of int | Bump of int * int | Pop

let n_heap_keys = 48

let gen_heap_ops =
  let open QCheck2.Gen in
  list_size (int_range 1 300)
    (frequency
       [
         (4, map (fun k -> Insert k) (int_bound (n_heap_keys - 1)));
         ( 3,
           map2 (fun k d -> Bump (k, d)) (int_bound (n_heap_keys - 1))
             (int_bound 2) );
         (3, pure Pop);
       ])

let print_heap_op = function
  | Insert k -> Printf.sprintf "insert %d" k
  | Bump (k, d) -> Printf.sprintf "bump %d +%d" k d
  | Pop -> "pop"

let prop_heap_matches_closure_heap =
  QCheck2.Test.make ~count:300 ~name:"heap pops match the closure heap"
    ~print:(fun (init, ops) ->
      String.concat ","
        (List.map string_of_int init @ List.map print_heap_op ops))
    QCheck2.Gen.(
      pair (list_repeat n_heap_keys (int_bound 3)) gen_heap_ops)
    (fun (init, ops) ->
      let score = Array.of_list (List.map float_of_int init) in
      let h = Idx_heap.create () in
      let r = Closure_heap.create ~gt:(fun a b -> score.(a) > score.(b)) in
      List.for_all
        (function
          | Insert k ->
              Idx_heap.insert h score k;
              Closure_heap.insert r k;
              true
          | Bump (k, d) ->
              score.(k) <- score.(k) +. float_of_int d;
              Idx_heap.increased h score k;
              Closure_heap.increased r k;
              true
          | Pop ->
              Idx_heap.is_empty h = Closure_heap.is_empty r
              && (Idx_heap.is_empty h
                 || Idx_heap.remove_max h score = Closure_heap.remove_max r))
        ops
      &&
      let rest = ref true in
      while !rest && not (Closure_heap.is_empty r) do
        rest :=
          (not (Idx_heap.is_empty h))
          && Idx_heap.remove_max h score = Closure_heap.remove_max r
      done;
      !rest && Idx_heap.is_empty h)

let test_heap_audit () =
  let score = Array.init 8 float_of_int in
  let h = Idx_heap.create () in
  List.iter (Idx_heap.insert h score) [ 3; 1; 6; 0 ];
  let found = ref [] in
  Idx_heap.audit h score (fun m -> found := m :: !found);
  Alcotest.(check (list string)) "healthy heap" [] !found;
  (* the max grows out of order without [increased]: key 0 now outranks
     its parent *)
  score.(0) <- 100.0;
  Idx_heap.audit h score (fun m -> found := m :: !found);
  Alcotest.(check int) "order violation reported" 1 (List.length !found)

(* ---------- Lit ---------- *)

let test_lit_encoding () =
  let p = Lit.pos 7 and n = Lit.neg_of_var 7 in
  Alcotest.(check int) "var" 7 (Lit.var p);
  Alcotest.(check int) "var of neg" 7 (Lit.var n);
  Alcotest.(check bool) "pos" true (Lit.is_pos p);
  Alcotest.(check bool) "neg" false (Lit.is_pos n);
  Alcotest.(check int) "negate" n (Lit.negate p);
  Alcotest.(check int) "double negate" p (Lit.negate (Lit.negate p));
  Alcotest.(check int) "dimacs" 8 (Lit.to_dimacs p);
  Alcotest.(check int) "dimacs neg" (-8) (Lit.to_dimacs n);
  Alcotest.(check int) "roundtrip" p (Lit.of_dimacs (Lit.to_dimacs p));
  Alcotest.(check int) "roundtrip neg" n (Lit.of_dimacs (Lit.to_dimacs n));
  match Lit.of_dimacs 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of 0"

let prop_lit_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"dimacs roundtrip" ~print:string_of_int
    QCheck2.Gen.(int_range 0 10000)
    (fun l -> Lit.of_dimacs (Lit.to_dimacs l) = l)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "step_util"
    [
      ( "veci",
        [
          Alcotest.test_case "push/pop" `Quick test_veci_push_pop;
          Alcotest.test_case "pop empty" `Quick test_veci_pop_empty;
          Alcotest.test_case "shrink/clear" `Quick test_veci_shrink_clear;
          Alcotest.test_case "remove unordered" `Quick
            test_veci_remove_unordered;
          Alcotest.test_case "iter/exists/sort" `Quick
            test_veci_iter_exists_sort;
          Alcotest.test_case "growth" `Quick test_veci_growth;
        ] );
      ( "idx_heap",
        [
          Alcotest.test_case "extract order" `Quick
            test_heap_extracts_in_order;
          Alcotest.test_case "no duplicates" `Quick test_heap_no_duplicates;
          Alcotest.test_case "increased" `Quick test_heap_increased;
          Alcotest.test_case "audit" `Quick test_heap_audit;
        ] );
      ("lit", [ Alcotest.test_case "encoding" `Quick test_lit_encoding ]);
      qsuite "properties"
        [ prop_heap_sorts; prop_heap_matches_closure_heap; prop_lit_roundtrip ];
    ]
