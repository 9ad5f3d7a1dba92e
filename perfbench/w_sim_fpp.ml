(* sim_fpp: a file-per-process checkpoint at about 10^4 ranks, saved as a
   binary trace and analyzed in batch.

   The scheduler, the POSIX -> backend -> PFS write path, metadata creates
   and trace encoding do almost all the work; the analysis of an N-N trace
   without overlaps does little.  A change to payload copies or to the
   scheduler shows here, a change to the analysis should not. *)

module Runner = Hpcfs_apps.Runner
module App_common = Hpcfs_apps.App_common
module Posix = Hpcfs_posix.Posix
module Pfs = Hpcfs_fs.Pfs
module Tracefile = Hpcfs_trace.Tracefile
module Record = Hpcfs_trace.Record
module Prng = Hpcfs_util.Prng
module Report = Hpcfs_core.Report
module Sharing = Hpcfs_core.Sharing
module Conflict = Hpcfs_core.Conflict

let dir = "/wl/scale-fpp"
let block = 4096
let writes = 2

(* The calls the DSL spec `write:layout=fpp,block=4096,count=2` (workload
   name scale-fpp) compiles to, with every POSIX call timed into the probe.
   [tag] offsets the payload contents; the trace does not depend on it. *)
let body p ~tag env =
  let posix = env.Runner.posix in
  App_common.setup_dir env dir;
  let path = Printf.sprintf "%s/data.%d" dir (App_common.rank env) in
  let fd =
    Measure.time p "posix.open_s" (fun () ->
        Posix.openf posix path [ Posix.O_RDWR; Posix.O_CREAT; Posix.O_TRUNC ])
  in
  for op = 0 to writes - 1 do
    let buf = App_common.payload ~len:block env (tag + op) in
    ignore
      (Measure.time p "posix.write_s" (fun () ->
           Posix.pwrite posix fd ~off:(op * block) buf))
  done;
  Measure.time p "posix.close_s" (fun () -> Posix.close posix fd);
  App_common.compute env

let iterate ~ranks ~tag ~trace_path p =
  let b = Common.batch () in
  Common.job b "sim_fpp" (fun () ->
      let result =
        Measure.phase p ~gc:"sim" "sim.run_s" (fun () ->
            Runner.run ~nprocs:ranks (body p ~tag))
      in
      let records = result.Runner.records in
      Measure.phase p ~gc:"encode" "trace.encode_s" (fun () ->
          Tracefile.save ~format:Tracefile.Binary trace_path records);
      let summary =
        Report.summary_of_report (Common.analyze p ~nprocs:ranks records)
      in
      let n = List.length records in
      let calls func =
        List.length (List.filter (fun r -> r.Record.func = func) records)
      in
      let per_call_us name seconds calls =
        Measure.add p name (Measure.get p seconds *. 1e6 /. float_of_int calls)
      in
      if p.Measure.on then begin
        per_call_us "posix.open_us" "posix.open_s" ranks;
        per_call_us "posix.write_us" "posix.write_s" (writes * ranks);
        per_call_us "posix.close_us" "posix.close_s" ranks;
        Measure.count p "posix.calls" ((writes + 2) * ranks);
        Measure.add p "trace.bytes_per_record"
          (float_of_int (Unix.stat trace_path).Unix.st_size /. float_of_int n)
      end;
      let checks =
        [
          ("one open per rank", calls "open" = ranks);
          ("two pwrites per rank", calls "pwrite" = writes * ranks);
          ("one close per rank", calls "close" = ranks);
          ( "bytes reached the PFS",
            result.Runner.stats.Pfs.bytes_written = writes * block * ranks );
          ( "N-N sharing",
            Sharing.xy_name summary.Report.sharing.Sharing.xy = "N-N" );
          ( "every pwrite resolved",
            summary.Report.access_count = writes * ranks );
          ( "no session conflicts",
            Conflict.no_conflicts summary.Report.session );
          ("no commit conflicts", Conflict.no_conflicts summary.Report.commit);
        ]
      in
      (n, checks, (summary, Digest.file trace_path)));
  Common.finish b

let ranks = 10_000

let setup ~seed =
  let g = Prng.create seed in
  let tag = Prng.int g 256 in
  let trace_path =
    Common.scratch_file (Printf.sprintf "sim_fpp-%d.trace" seed)
  in
  (* Warm-up: a quarter of the ranks, untimed. *)
  ignore (iterate ~ranks:(ranks / 4) ~tag ~trace_path Measure.off);
  {
    Common.iterate = iterate ~ranks ~tag ~trace_path;
    verify = (fun () -> []);
    cleanup = (fun () -> Common.remove_scratch trace_path);
  }

let workload =
  {
    Common.name = "sim_fpp";
    self_times =
      [ "sim.self_s"; "posix.call_s"; "trace.encode_s"; "core.resolve_s";
        "core.overlap_s"; "core.sharing_s"; "core.patterns_s";
        "core.conflicts_s"; "core.metadata_s"; "core.recommend_s" ];
    setup;
  }
