(* One benchmark run: set up a workload, check its inputs, then iterate it
   for the requested time and reduce the iterations to the metrics.

   Load is one client in a closed loop: one iteration at a time, each job
   inside it started after the previous one finished, on the default
   single-domain scheduler.  With [trace] off every iteration runs with no
   telemetry sink installed and yields the end-to-end metrics.  With
   [trace] on, untraced and traced iterations alternate: the traced one
   records into a fresh sink and probe, must produce the same results as
   the untraced one, and yields the per-layer metrics. *)

module Obs = Hpcfs_obs.Obs

let workloads =
  [
    W_sim_fpp.workload;
    W_paper_validate.workload;
    W_analyze_stream.workload;
    W_staged_ckpt.workload;
  ]

let find name = List.find_opt (fun w -> w.Common.name = name) workloads

(* Settings that would change what is measured. *)
let refused_variables () =
  Array.to_list (Unix.environment ())
  |> List.filter_map (fun kv ->
         let k =
           match String.index_opt kv '=' with
           | Some i -> String.sub kv 0 i
           | None -> kv
         in
         if
           k = "HPCFS_DOMAINS" || k = "HPCFS_SCHED_DEBUG"
           || String.starts_with ~prefix:"HPCFS_BENCH_" k
         then Some k
         else None)

type config = {
  workload : Common.workload;
  seed : int;
  seconds : float;
  trace : bool;
}

let setups = 5
let min_iterations = 3

type tally = { mutable attempted : int; mutable failed : int }

let fail tally ~workload label failures =
  tally.failed <- tally.failed + 1;
  Printf.eprintf "FAILED %s %s: %s\n%!" workload label
    (String.concat "; " failures)

let count_jobs tally ~workload (it : Common.iteration) =
  List.iter
    (fun (j : Common.job) ->
      tally.attempted <- tally.attempted + 1;
      if j.Common.failures <> [] then
        fail tally ~workload j.Common.label j.Common.failures)
    it.Common.jobs

let untraced (inst : Common.instance) =
  if Obs.installed () <> None then failwith "a telemetry sink is installed";
  Measure.measured (fun () -> inst.Common.iterate Measure.off)

(* The per-layer values of one traced iteration. *)
let traced (w : Common.workload) (inst : Common.instance) =
  let sink = Obs.create () in
  let p = Measure.probe () in
  Gc.full_major ();
  let t0 = Measure.now () in
  let it = Obs.with_sink sink (fun () -> inst.Common.iterate p) in
  let wall = Measure.now () -. t0 -. Measure.untimed_s p in
  List.iter (fun (name, v) -> Measure.add p name v) (Common.sink_values sink);
  let call_s =
    List.fold_left
      (fun acc n -> acc +. Measure.get p n)
      0.
      [ "posix.open_s"; "posix.write_s"; "posix.close_s" ]
  in
  Measure.add p "posix.call_s" call_s;
  Measure.add p "sim.self_s" (Measure.get p "sim.run_s" -. call_s);
  let ms = List.map (fun (j : Common.job) -> j.Common.ms) it.Common.jobs in
  Measure.add p "apps.job_p50_ms" (Measure.median ms);
  Measure.add p "apps.job_max_ms" (Measure.maximum ms);
  let attributed =
    List.fold_left (fun acc n -> acc +. Measure.get p n) 0. w.Common.self_times
  in
  Measure.add p "unattributed_s" (wall -. attributed);
  (it, wall, p)

let median_of f xs = Measure.median (List.map f xs)

(* One untraced iteration, per record where it applies. *)
type sample = {
  wall : float;
  rate : float;
  alloc : float;
  major : float;
  heap : float;
}

let run cfg =
  let w = cfg.workload in
  let workload = w.Common.name in
  let tally = { attempted = 0; failed = 0 } in
  let setup_times = ref [] in
  let inst = ref None in
  for _ = 1 to setups do
    let t0 = Measure.now () in
    let i = w.Common.setup ~seed:cfg.seed in
    setup_times := (Measure.now () -. t0) :: !setup_times;
    inst := Some i
  done;
  let inst = Option.get !inst in
  Fun.protect ~finally:inst.Common.cleanup @@ fun () ->
  tally.attempted <- tally.attempted + 1;
  (match inst.Common.verify () with
  | [] -> ()
  | failures -> fail tally ~workload "inputs" failures);
  let start = Measure.now () in
  let more n = n < min_iterations || Measure.now () -. start < cfg.seconds in
  let values =
    if not cfg.trace then begin
      let rec loop n acc =
        if not (more n) then List.rev acc
        else begin
          let it, wall, alloc, major = untraced inst in
          count_jobs tally ~workload it;
          let records = float_of_int (max 1 it.Common.records) in
          let sample =
            {
              wall;
              rate = records /. wall;
              alloc = alloc /. records;
              major = major /. records;
              heap = Measure.top_heap_mb ();
            }
          in
          loop (n + 1) (sample :: acc)
        end
      in
      let runs = loop 0 [] in
      (* Allocation and heap are deterministic for a seed but drift from
         one iteration to the next as the major heap ages; they are read
         from the first iterations, which every run makes. *)
      let first = List.filteri (fun i _ -> i < min_iterations) runs in
      let by name v =
        (List.find (fun d -> d.Metrics.name = name) Metrics.end_to_end, v)
      in
      [
        by "setup_s" (Measure.median !setup_times);
        by "wall_s" (median_of (fun s -> s.wall) runs);
        by "records_per_s" (median_of (fun s -> s.rate) runs);
        by "peak_heap_mb" (Measure.maximum (List.map (fun s -> s.heap) first));
        by "alloc_words_per_record" (median_of (fun s -> s.alloc) first);
        by "major_words_per_record" (median_of (fun s -> s.major) first);
      ]
    end
    else begin
      let rec loop n acc =
        if n >= 1 && not (more n) then List.rev acc
        else begin
          let it_u, wall_u, _, _ = untraced inst in
          count_jobs tally ~workload it_u;
          let it_t, wall_t, p = traced w inst in
          count_jobs tally ~workload it_t;
          tally.attempted <- tally.attempted + 1;
          if it_t.Common.fingerprint <> it_u.Common.fingerprint then
            fail tally ~workload "traced run"
              [ "traced results differ from untraced results" ];
          loop (n + 1) ((wall_u, wall_t, p) :: acc)
        end
      in
      let pairs = loop 0 [] in
      let overhead =
        (median_of (fun (_, t, _) -> t) pairs
        /. median_of (fun (u, _, _) -> u) pairs)
        -. 1.
      in
      List.map
        (fun (d : Metrics.decl) ->
          if d.Metrics.name = "obs.overhead_ratio" then (d, overhead)
          else
            let value (_, _, p) = Measure.get p d.Metrics.name in
            (d, median_of value pairs))
        Metrics.per_layer
    end
  in
  {
    Metrics.attempted = tally.attempted;
    failed = tally.failed;
    correct = tally.failed = 0;
    values;
  }
