(* What the workloads share: jobs and their checks, the result fingerprint
   that ties a traced iteration to an untraced one, batch analysis, and the
   per-layer values read from an installed sink. *)

module Obs = Hpcfs_obs.Obs
module Report = Hpcfs_core.Report
module Overlap = Hpcfs_core.Overlap

(* One job: a unit of work a user would start, checked on its own. *)
type job = { label : string; failures : string list; ms : float }

(* One iteration of a workload: the timed unit of a run. *)
type iteration = {
  records : int;  (** Trace records simulated or consumed. *)
  jobs : job list;
  fingerprint : string;  (** Digest of every job's results. *)
}

type instance = {
  iterate : Measure.probe -> iteration;
      (** Same calls in the same order with the probe off or on. *)
  verify : unit -> string list;
      (** Untimed checks of the generated inputs, run once before the
          first iteration; the failing checks. *)
  cleanup : unit -> unit;
}

type workload = {
  name : string;
  self_times : string list;
      (** Per-layer times that partition a traced iteration's wall time;
          what they leave over is reported as [unattributed_s]. *)
  setup : seed:int -> instance;
      (** Inputs from the seed, plus any warm-up: the set-up time. *)
}

(* Names of the checks that do not hold. *)
let failing checks =
  List.filter_map (fun (name, ok) -> if ok then None else Some name) checks

let digest v =
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

(* Collects the jobs of one iteration.  [f] returns the job's record count,
   its checks and the value its fingerprint covers; an exception fails the
   job. *)
type batch = {
  mutable b_records : int;
  mutable b_jobs : job list;
  mutable b_digests : string list;
}

let batch () = { b_records = 0; b_jobs = []; b_digests = [] }

let job b label f =
  let t0 = Measure.now () in
  let failures =
    match f () with
    | records, checks, result ->
      b.b_records <- b.b_records + records;
      b.b_digests <- digest result :: b.b_digests;
      failing checks
    | exception e -> [ "raised " ^ Printexc.to_string e ]
  in
  let ms = (Measure.now () -. t0) *. 1000. in
  b.b_jobs <- { label; failures; ms } :: b.b_jobs

let finish b =
  {
    records = b.b_records;
    jobs = List.rev b.b_jobs;
    fingerprint = digest (List.rev b.b_digests);
  }

(* Report.analyze.  Its phases run inside "analyze.<phase>" spans, which
   [sink_values] turns into core.<phase>_s; the overlap pairs, which the
   report does not keep, are counted outside the traced wall time. *)
let analyze p ~nprocs records =
  let report =
    Measure.phase p ~gc:"analyze" "core.analyze_s" (fun () ->
        Report.analyze ~nprocs records)
  in
  let accesses = report.Report.accesses in
  Measure.count p "core.accesses" (List.length accesses);
  Measure.untimed p (fun () ->
      Measure.count p "core.overlap_pairs"
        (List.length (Overlap.detect accesses)));
  report

(* Per-layer values read from the sink a traced iteration recorded into:
   the batch-analysis phase times from their spans, and the counters.  The
   counters cover every simulation in the iteration, validation and crash
   runs included, while sim.run_s times only the analyzed or fault-free
   Runner.run calls. *)
let sink_values sink =
  let c name = Obs.find_counter sink name in
  let f = float_of_int in
  let share part whole = if whole = 0 then 0. else f part /. f whole in
  let histogram_sum name =
    match List.assoc_opt name (Obs.metrics sink) with
    | Some (Obs.Histogram xs) -> Array.fold_left ( +. ) 0. xs
    | Some _ | None -> 0.
  in
  let plain =
    [
      "sim.steps"; "sim.rounds"; "fs.opens"; "fs.bytes_written"; "md.ops";
      "fs.lock.acquisitions"; "fs.lock.revocations"; "fs.stale_bytes";
      "bb.staged_bytes"; "bb.drained_bytes"; "bb.stalls"; "bb.drain_retries";
      "wal.appended_bytes"; "wal.drained_bytes"; "wal.stalls";
      "wal.writethrough"; "wal.recovered_bytes"; "fault.crashes";
      "fault.restarts";
    ]
  in
  let phases =
    List.filter_map
      (fun (name, _, _, seconds) ->
        match String.split_on_char '.' name with
        | [ "analyze"; phase ] -> Some ("core." ^ phase ^ "_s", seconds)
        | _ -> None)
      (Obs.span_summary sink)
  in
  phases
  @ List.map (fun n -> (n, f (c n))) plain
  @ [
      ( "md.cache.hit_ratio",
        share (c "md.cache.hits") (c "md.cache.hits" + c "md.cache.misses") );
      ( "fs.lock.hit_ratio",
        share (c "fs.lock.hits") (c "fs.lock.hits" + c "fs.lock.acquisitions")
      );
      ( "fs.extent.fast_read_ratio",
        share (c "fs.extent.fast_reads")
          (c "fs.extent.fast_reads" + c "fs.extent.slow_reads") );
      ("bb.drain_ratio", share (c "bb.drained_bytes") (c "bb.staged_bytes"));
      ("wal.lost_bytes", f (c "wal.crash_lost_bytes"));
      ("wal.torn_bytes", f (c "wal.crash_torn_bytes"));
      ( "modelled.mpi.barrier_wait_ticks",
        histogram_sum "mpi.barrier_wait_ticks" );
    ]

(* Scratch files live in the working directory, which is the checkout the
   benchmark runs from. *)
let scratch_dir = ".perfbench_tmp"

let scratch_file name =
  if not (Sys.file_exists scratch_dir) then Sys.mkdir scratch_dir 0o755;
  Filename.concat scratch_dir name

let remove_scratch path =
  (try Sys.remove path with Sys_error _ -> ());
  try Sys.rmdir scratch_dir with Sys_error _ -> ()
