(* paper_validate: every Registry.all configuration as one `validate APP`
   job — simulate, analyze the trace, then run the configuration under
   strong, commit, session and eventual:8 and compare each against strong.

   The only workload that runs the HDF5, MPI-IO, ADIOS, NetCDF and Silo
   models, the lock manager, reads beside writes and the validation
   read-back, and the one that carries the paper's headline: Tables 3 and
   4 cell for cell, and session semantics failing FLASH alone. *)

module Runner = Hpcfs_apps.Runner
module Registry = Hpcfs_apps.Registry
module Validation = Hpcfs_apps.Validation
module Consistency = Hpcfs_fs.Consistency
module Record = Hpcfs_trace.Record
module Prng = Hpcfs_util.Prng
module Report = Hpcfs_core.Report
module Sharing = Hpcfs_core.Sharing
module Conflict = Hpcfs_core.Conflict
module Recommend = Hpcfs_core.Recommend

let eventual = Consistency.Eventual { delay = 8 }

let semantics =
  [ Consistency.Strong; Consistency.Commit; Consistency.Session; eventual ]

(* What the paper says about one configuration. *)
type expectation = {
  xy : string;  (** Table 3 X-Y cell. *)
  conflicts : Registry.conflicts option;  (** Table 4 session row. *)
  session_correct : bool;  (** False for FLASH only. *)
}

let expectation (e : Registry.entry) =
  {
    xy = e.Registry.expected_xy;
    conflicts = e.Registry.expected_conflicts;
    session_correct = e.Registry.app <> "FLASH";
  }

(* The eventual:8 outcome is recorded, not checked. *)
let checks expect (s : Report.summary) outcomes =
  let correct sem =
    Validation.correct
      (List.find (fun o -> o.Validation.semantics = sem) outcomes)
  in
  let session = s.Report.session in
  let got =
    {
      Registry.waw_s = session.Conflict.waw_s > 0;
      waw_d = session.Conflict.waw_d > 0;
      raw_s = session.Conflict.raw_s > 0;
      raw_d = session.Conflict.raw_d > 0;
    }
  in
  (* The validate experiment's rule: running at the recommended level or
     stronger is correct. *)
  let recommendation_safe =
    correct Consistency.Strong
    &&
    match s.Report.verdict.Recommend.semantics with
    | Consistency.Session ->
      correct Consistency.Session && correct Consistency.Commit
    | Consistency.Commit -> correct Consistency.Commit
    | Consistency.Strong | Consistency.Eventual _ -> true
  in
  [
    ("Table 3 X-Y", Sharing.xy_name s.Report.sharing.Sharing.xy = expect.xy);
    ( "Table 4 session row",
      match expect.conflicts with None -> true | Some c -> got = c );
    ("correct under strong", correct Consistency.Strong);
    ("correct under commit", correct Consistency.Commit);
    ("session verdict", correct Consistency.Session = expect.session_correct);
    ("recommendation safe", recommendation_safe);
  ]

(* [seed] drives the models' scheduling jitter in the analyzed run; the
   validation runs keep the default seed, as the CLI does. *)
let job p b ~nprocs ~seed ~expect (entry : Registry.entry) =
  Common.job b (Registry.label entry) (fun () ->
      let result =
        Measure.phase p ~gc:"sim" "sim.run_s" (fun () ->
            Runner.run ~nprocs ~seed entry.Registry.body)
      in
      let records = result.Runner.records in
      if p.Measure.on then
        List.iter
          (fun r ->
            Measure.count p
              (match r.Record.layer with
              | Record.L_posix -> "trace.records.posix"
              | Record.L_mpiio -> "trace.records.mpiio"
              | Record.L_hdf5 -> "trace.records.hdf5")
              1)
          records;
      let summary =
        Report.summary_of_report (Common.analyze p ~nprocs records)
      in
      let outcomes =
        Measure.phase p ~gc:"validate" "apps.validate_s" (fun () ->
            Validation.validate ~nprocs ~semantics entry.Registry.body)
      in
      if
        Validation.correct
          (List.find (fun o -> o.Validation.semantics = eventual) outcomes)
      then Measure.count p "apps.eventual8_correct" 1;
      ( List.length records,
        checks expect summary outcomes,
        (summary, outcomes) ))

(* Configurations run in the paper's order: the heap one job leaves
   behind shapes the next one's, so a seeded order would show up as
   noise in the heap and time figures. *)
let iterate ~nprocs ~seed p =
  let b = Common.batch () in
  List.iter
    (fun e -> job p b ~nprocs ~seed ~expect:(expectation e) e)
    Registry.all;
  Common.finish b

(* The paper's expectations need this many ranks (at 8, LAMMPS-ADIOS is
   no longer N-1); at 32 a run holds too few iterations to be steady. *)
let nprocs = 16

let setup ~seed =
  let seed = Prng.int (Prng.create seed) 1_000_000 in
  (* Warm-up: every model once, untimed. *)
  List.iter
    (fun e -> ignore (Runner.run ~nprocs ~seed e.Registry.body))
    Registry.all;
  {
    Common.iterate = iterate ~nprocs ~seed;
    verify = (fun () -> []);
    cleanup = ignore;
  }

let workload =
  {
    Common.name = "paper_validate";
    self_times =
      [ "sim.self_s"; "core.resolve_s"; "core.overlap_s"; "core.sharing_s";
        "core.patterns_s"; "core.conflicts_s"; "core.metadata_s";
        "core.recommend_s"; "apps.validate_s" ];
    setup;
  }
