(* Entry point: [bench.exe --workload W --seed N --seconds S --trace 0|1],
   or [bench.exe --build-refs] to rebuild the reference answers. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let build_refs = ref false and step_exe = ref "_build/default/bin/step.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--step", Arg.Set_string step_exe, "PATH the step executable");
      ("--build-refs", Arg.Set build_refs, " rebuild perfbench/refs");
    ]
    (fun a -> raise (Arg.Bad a))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if !build_refs then begin
    if not (Serve_load.pool_cones_distinct ()) then (
      prerr_endline "serve pool: a cone repeats";
      exit 1);
    let bad =
      List.fold_left
        (fun acc spec ->
          let entries, bad = Batch.build_refs spec in
          if bad = 0 then Refs.save spec.Batch.name entries;
          acc + bad)
        0
        [ Batch.exact_heavy; Batch.certified_sweep; Serve_load.hot_spec; Serve_load.pool_spec ]
    in
    exit (if bad = 0 then 0 else 1)
  end;
  let batch spec =
    if !trace = 0 then Batch.run_plain spec ~seed:!seed ~seconds:!seconds
    else Batch.run_traced spec ~seed:!seed
  in
  match !workload with
  | "exact-heavy" -> batch Batch.exact_heavy
  | "certified-sweep" -> batch Batch.certified_sweep
  | "serve-mixed" ->
      if !trace = 0 then
        Serve_load.run_plain ~step:!step_exe ~seed:!seed ~seconds:!seconds
      else Serve_load.run_traced ~step:!step_exe ~seed:!seed
  | w ->
      prerr_endline ("unknown workload: " ^ w);
      exit 2
