(* perfbench: one workload per invocation, result as the last stdout line.

   main.exe --workload sim-mixed|suite-j2|rt-line --seed N --seconds S
            --trace 0|1

   With [--trace 0] the result carries the end-to-end metrics; with
   [--trace 1] a separate, instrumented run carries the per-layer metrics
   and the reconciliation rows. See README.md. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload sim-mixed|suite-j2|rt-line --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let seconds = float_of_int !seconds and seed = !seed in
  let result =
    match (!workload, !trace) with
    | "sim-mixed", 0 -> Sim_mixed.run ~seed ~seconds
    | "sim-mixed", 1 -> Sim_mixed.run_traced ~seed ~seconds
    | "suite-j2", 0 -> Suite.run ~seconds
    | "suite-j2", 1 -> Suite.run_traced ~seed
    | "rt-line", 0 -> Rt_line.run ~seed ~seconds
    | "rt-line", 1 -> Rt_line.run_traced ~seed ~seconds
    | _ -> usage ()
  in
  (* JSON has no NaN or infinity: such a figure is a fault of the benchmark,
     so it fails the run's correctness instead of reaching the result. *)
  let finite (x : Measure.metric) =
    Measure.check (Float.is_finite x.Measure.value) "metric %s is %f" x.Measure.name
      x.Measure.value;
    if Float.is_finite x.Measure.value then x else { x with Measure.value = 0. }
  in
  let metrics = List.map finite result.Measure.metrics in
  print_endline
    (Measure.result_json
       { result with Measure.metrics; correct = result.Measure.correct && !Measure.problems = [] })
