(* Benchmark entry point:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints an environment line, then as its last line the result object
   {"correct", "attempted", "failed", "metrics"}.  Exits 2 on bad
   arguments or when a variable that changes the measurement is set. *)

let usage =
  "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  exit 2

let () =
  let workload = ref "" in
  let seed = ref 1 in
  let seconds = ref 10 in
  let trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S how long to iterate");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
    ]
    (fun a -> die ("unexpected argument " ^ a))
    usage;
  let w =
    match Perfbench.Harness.find !workload with
    | Some w -> w
    | None ->
      die
        (Printf.sprintf "unknown workload %S (one of: %s)" !workload
           (String.concat ", "
              (List.map
                 (fun w -> w.Perfbench.Common.name)
                 Perfbench.Harness.workloads)))
  in
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  if !seconds < 1 then die "--seconds must be at least 1";
  (match Perfbench.Harness.refused_variables () with
  | [] -> ()
  | vars ->
    die ("refusing to run with " ^ String.concat ", " vars ^ " set"));
  let result =
    Perfbench.Harness.run
      {
        Perfbench.Harness.workload = w;
        seed = !seed;
        seconds = float_of_int !seconds;
        trace = !trace = 1;
      }
  in
  Printf.printf
    "{\"env\": {\"workload\": %S, \"seed\": %d, \"trace\": %d, \"nproc\": %d, \
     \"ocaml\": %S, \"profile\": %S, \"failed_ratio\": %s}}\n"
    !workload !seed !trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Perfbench.Build_info.profile
    (Perfbench.Metrics.json_float
       (float_of_int result.Perfbench.Metrics.failed
       /. float_of_int result.Perfbench.Metrics.attempted));
  print_endline (Perfbench.Metrics.to_json result)
