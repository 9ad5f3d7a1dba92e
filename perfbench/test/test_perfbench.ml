(* Tests of the benchmark's own code: metric names, the hand-written
   sim_fpp body against the DSL spec it mirrors, the analyze_stream
   generator, and the paper_validate checks — a wrong expectation must
   fail its job and so raise the failed-job ratio above 0. *)

open Perfbench
module Registry = Hpcfs_apps.Registry
module Runner = Hpcfs_apps.Runner
module Workload = Hpcfs_wl.Workload
module Compile = Hpcfs_wl.Compile

let names decls = List.map (fun d -> d.Metrics.name) decls

let test_metric_names () =
  let all = names Metrics.end_to_end @ names Metrics.per_layer in
  List.iter
    (fun n ->
      Alcotest.(check bool) ("valid name " ^ n) true (Metrics.valid_name n))
    all;
  Alcotest.(check int) "names are unique"
    (List.length all)
    (List.length (List.sort_uniq compare all));
  Alcotest.(check bool) "rejects a space" false (Metrics.valid_name "wall s")

let test_sim_fpp_mirrors_dsl () =
  let nprocs = 24 in
  let spec =
    match Workload.of_string "write:layout=fpp,block=4096,count=2" with
    | Ok w -> { w with Workload.name = "scale-fpp" }
    | Error e -> Alcotest.fail e
  in
  let dsl = (Runner.run ~nprocs (Compile.body spec)).Runner.records in
  List.iter
    (fun tag ->
      let mine =
        (Runner.run ~nprocs (W_sim_fpp.body Measure.off ~tag)).Runner.records
      in
      Alcotest.(check bool)
        (Printf.sprintf "same trace as the DSL spec (tag %d)" tag)
        true (mine = dsl))
    [ 0; 17 ]

let test_generator_is_seeded () =
  let take seed =
    let g = W_analyze_stream.generator seed in
    List.init 5_000 (W_analyze_stream.next g)
  in
  Alcotest.(check bool) "same seed, same records" true (take 3 = take 3);
  Alcotest.(check bool) "another seed, other records" false (take 3 = take 4)

let failed_ratio (it : Common.iteration) =
  let tally = { Harness.attempted = 0; failed = 0 } in
  Harness.count_jobs tally ~workload:"test" it;
  float_of_int tally.Harness.failed /. float_of_int tally.Harness.attempted

let validate_job ~expect entry =
  let b = Common.batch () in
  W_paper_validate.job Measure.off b ~nprocs:16 ~seed:42 ~expect entry;
  Common.finish b

let test_wrong_expectation_fails () =
  let entry = Option.get (Registry.find "FLASH-fbs") in
  let right = W_paper_validate.expectation entry in
  Alcotest.(check (float 0.)) "the paper's expectation passes" 0.
    (failed_ratio (validate_job ~expect:right entry));
  List.iter
    (fun (what, wrong) ->
      Alcotest.(check bool) what true
        (failed_ratio (validate_job ~expect:wrong entry) > 0.))
    [
      ("a wrong X-Y cell fails", { right with W_paper_validate.xy = "N-N" });
      ( "a wrong session verdict fails",
        { right with W_paper_validate.session_correct = true } );
      ( "a wrong Table 4 row fails",
        { right with W_paper_validate.conflicts = Some Registry.no_conflicts }
      );
    ]

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "metric names" `Quick test_metric_names;
          Alcotest.test_case "sim_fpp mirrors the DSL" `Quick
            test_sim_fpp_mirrors_dsl;
          Alcotest.test_case "stream generator is seeded" `Quick
            test_generator_is_seeded;
          Alcotest.test_case "wrong expectation fails" `Quick
            test_wrong_expectation_fails;
        ] );
    ]
