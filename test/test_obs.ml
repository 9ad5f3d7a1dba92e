(* Tests for the telemetry subsystem (lib/obs): disabled no-op behaviour,
   the metric registry, sink nesting, and golden renderings of the Chrome
   trace and metrics exporters.  Golden tests pin the wall clock so the
   output is a function of sink contents only. *)

module Obs = Hpcfs_obs.Obs
module Export_chrome = Hpcfs_obs.Export_chrome
module Export_metrics = Hpcfs_obs.Export_metrics
module App_report = Hpcfs_obs.App_report
module Record = Hpcfs_trace.Record
module Registry = Hpcfs_apps.Registry
module Runner = Hpcfs_apps.Runner

let with_fixed_wall f =
  Obs.set_wall_clock (fun () -> 0.5);
  Fun.protect ~finally:(fun () -> Obs.set_wall_clock Unix.gettimeofday) f

(* Disabled behaviour ------------------------------------------------------- *)

let test_disabled_noop () =
  Alcotest.(check bool) "not enabled" false (Obs.enabled ());
  Alcotest.(check bool) "nothing installed" true (Obs.installed () = None);
  (* None of these may raise or have any observable effect. *)
  Obs.incr "x";
  Obs.incr ~by:10 "x";
  Obs.gauge "g" 3;
  Obs.observe "h" 1.0;
  Obs.event Obs.T_fs "ev";
  Obs.span_at Obs.T_bb ~t0:0 ~t1:5 "sp";
  Alcotest.(check int) "span is identity" 41 (Obs.span Obs.T_core "s" (fun () -> 41));
  (* A sink created but not installed stays empty. *)
  let sink = Obs.create () in
  Obs.incr "x";
  Alcotest.(check int) "uninstalled sink untouched" 0 (Obs.find_counter sink "x");
  Alcotest.(check bool) "no metrics" true (Obs.metrics sink = [])

(* Registry ----------------------------------------------------------------- *)

let test_registry () =
  let sink = Obs.create () in
  Obs.with_sink sink (fun () ->
      Obs.incr "a";
      Obs.incr ~by:4 "a";
      Obs.gauge "g" 2;
      Obs.gauge "g" 9;
      Obs.observe "h" 1.5;
      Obs.observe "h" 2.5);
  Alcotest.(check int) "counter" 5 (Obs.find_counter sink "a");
  Alcotest.(check int) "gauge keeps last" 9 (Obs.find_gauge sink "g");
  (match Obs.metrics sink with
  | [ ("a", Obs.Counter 5); ("g", Obs.Gauge { value = 9; series }); ("h", Obs.Histogram xs) ] ->
    Alcotest.(check int) "two gauge samples" 2 (List.length series);
    Alcotest.(check int) "two observations" 2 (Array.length xs)
  | _ -> Alcotest.fail "unexpected metric registry shape");
  Obs.reset sink;
  Alcotest.(check bool) "reset empties" true (Obs.metrics sink = [])

let test_with_sink_nesting () =
  let outer = Obs.create () and inner = Obs.create () in
  Obs.with_sink outer (fun () ->
      Obs.incr "c";
      Obs.with_sink inner (fun () -> Obs.incr "c");
      Obs.incr "c";
      (* An exception must still restore the outer sink. *)
      (try Obs.with_sink inner (fun () -> failwith "boom")
       with Failure _ -> ());
      Obs.incr "c");
  Alcotest.(check int) "outer counted around nesting" 3
    (Obs.find_counter outer "c");
  Alcotest.(check int) "inner counted once" 1 (Obs.find_counter inner "c");
  Alcotest.(check bool) "uninstalled after" false (Obs.enabled ())

let test_span_records_on_exception () =
  let sink = Obs.create () in
  (try
     Obs.with_sink sink (fun () ->
         Obs.span Obs.T_core "failing" (fun () -> failwith "boom"))
   with Failure _ -> ());
  match Obs.spans sink with
  | [ sp ] -> Alcotest.(check string) "span name" "failing" sp.Obs.sp_name
  | _ -> Alcotest.fail "expected exactly one span"

(* Golden exporters --------------------------------------------------------- *)

(* A hand-built sink covering a span, an instant event, a gauge series, a
   counter and a histogram; logical clock unset (reads 0), wall pinned. *)
let build_golden_sink () =
  let sink = Obs.create () in
  Obs.with_sink sink (fun () ->
      Obs.incr "fs.reads.strong";
      Obs.incr ~by:2 "fs.reads.strong";
      Obs.gauge "bb.backlog" 7;
      Obs.observe "mpi.barrier_wait_ticks" 4.0;
      Obs.span_at Obs.T_bb ~t0:3 ~t1:9 "drain";
      Obs.event Obs.T_fs ~args:[ ("k", "v") ] "stall");
  sink

let golden_chrome =
  "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\
   {\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"ranks\"}},\n\
   {\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"FS\"}},\n\
   {\"ph\":\"M\",\"pid\":2,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"BB\"}},\n\
   {\"ph\":\"M\",\"pid\":3,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"sched\"}},\n\
   {\"ph\":\"M\",\"pid\":4,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"MPI\"}},\n\
   {\"ph\":\"M\",\"pid\":5,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"analysis\"}},\n\
   {\"ph\":\"M\",\"pid\":6,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"WAL\"}},\n\
   {\"ph\":\"X\",\"pid\":2,\"tid\":0,\"ts\":3,\"dur\":6,\"name\":\"drain\",\"args\":{\"wall_us\":\"0.0\"}},\n\
   {\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":0,\"ts\":0,\"name\":\"stall\",\"args\":{\"k\":\"v\"}},\n\
   {\"ph\":\"C\",\"pid\":2,\"tid\":0,\"ts\":0,\"name\":\"bb.backlog\",\"args\":{\"value\":7}}\n\
   ]}\n"

let test_chrome_golden () =
  with_fixed_wall (fun () ->
      let sink = build_golden_sink () in
      Alcotest.(check string) "chrome JSON" golden_chrome
        (Export_chrome.render sink))

let golden_csv =
  "metric,kind,value\n\
   fs.reads.strong,counter,3\n\
   bb.backlog,gauge,7\n\
   bb.backlog.samples,gauge,1\n\
   mpi.barrier_wait_ticks.count,histogram,1\n\
   mpi.barrier_wait_ticks.mean,histogram,4\n\
   mpi.barrier_wait_ticks.p50,histogram,4\n\
   mpi.barrier_wait_ticks.p95,histogram,4\n\
   mpi.barrier_wait_ticks.max,histogram,4\n\
   span.drain.calls,span,1\n\
   span.drain.ticks,span,6\n\
   span.drain.wall_s,span,0.000000\n"

let test_csv_golden () =
  with_fixed_wall (fun () ->
      let sink = build_golden_sink () in
      Alcotest.(check string) "metrics CSV" golden_csv
        (Export_metrics.to_csv sink))

let test_prometheus_shape () =
  with_fixed_wall (fun () ->
      let sink = build_golden_sink () in
      let prom = Export_metrics.to_prometheus sink in
      let has sub =
        let n = String.length prom and m = String.length sub in
        let rec go i =
          i + m <= n && (String.sub prom i m = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "counter line" true (has "hpcfs_fs_reads_strong 3");
      Alcotest.(check bool) "gauge line" true (has "hpcfs_bb_backlog 7");
      Alcotest.(check bool) "summary count" true
        (has "hpcfs_mpi_barrier_wait_ticks_count 1");
      Alcotest.(check bool) "span counter" true (has "hpcfs_span_drain_calls 1"))

let test_chrome_rank_tracks () =
  with_fixed_wall (fun () ->
      let sink = Obs.create () in
      let records =
        [
          Record.make ~time:5 ~rank:0 ~layer:Record.L_posix
            ~origin:Record.O_app ~func:"write" ~file:"/f" ~offset:0 ~count:8
            ();
          Record.make ~time:6 ~rank:1 ~layer:Record.L_posix
            ~origin:Record.O_app ~func:"read" ~file:"/f" ~offset:0 ~count:8 ();
        ]
      in
      let json = Export_chrome.render ~records sink in
      let has sub =
        let n = String.length json and m = String.length sub in
        let rec go i =
          i + m <= n && (String.sub json i m = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "rank 0 thread named" true
        (has "{\"name\":\"rank 0\"}");
      Alcotest.(check bool) "rank 1 thread named" true
        (has "{\"name\":\"rank 1\"}");
      Alcotest.(check bool) "record event" true
        (has
           "{\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":6,\"dur\":1,\"name\":\"read\""))

(* End-to-end: a small run renders stably ----------------------------------- *)

let small_entry () =
  match Registry.find "pF3D-IO" with
  | Some e -> e
  | None -> Alcotest.fail "pF3D-IO missing from registry"

let render_small_run () =
  let entry = small_entry () in
  let sink = Obs.create () in
  let result = Runner.run ~obs:sink ~nprocs:2 entry.Registry.body in
  let chrome = Export_chrome.render ~records:result.Runner.records sink in
  let csv = Export_metrics.to_csv sink in
  let report =
    App_report.render ~app:"pF3D-IO" ~nprocs:2 result.Runner.records
  in
  (sink, chrome, csv, report)

let test_run_render_stable () =
  with_fixed_wall (fun () ->
      let sink, chrome, csv, report = render_small_run () in
      let _, chrome', csv', report' = render_small_run () in
      Alcotest.(check string) "chrome stable across runs" chrome chrome';
      Alcotest.(check string) "csv stable across runs" csv csv';
      Alcotest.(check string) "io report stable across runs" report report';
      (* The run populated the registry through the instrumented layers. *)
      Alcotest.(check bool) "fs.opens counted" true
        (Obs.find_counter sink "fs.opens" > 0);
      Alcotest.(check bool) "sim.steps counted" true
        (Obs.find_counter sink "sim.steps" > 0);
      Alcotest.(check bool) "simulate span present" true
        (List.exists
           (fun (n, _, _, _) -> n = "simulate")
           (Obs.span_summary sink));
      (* The scheduler unregistered its clock when the run finished. *)
      Alcotest.(check int) "logical clock cleared" 0 (Obs.logical_now ());
      (* And the run left no sink behind. *)
      Alcotest.(check bool) "no sink left installed" false (Obs.enabled ()))

let test_run_disabled_unchanged () =
  (* The same body without a sink must leave no telemetry anywhere and
     produce the same trace. *)
  let entry = small_entry () in
  let with_sink_records =
    let sink = Obs.create () in
    (Runner.run ~obs:sink ~nprocs:2 entry.Registry.body).Runner.records
  in
  let without = (Runner.run ~nprocs:2 entry.Registry.body).Runner.records in
  Alcotest.(check int) "same record count"
    (List.length without)
    (List.length with_sink_records);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "same record" (Record.to_line a)
        (Record.to_line b))
    without with_sink_records

(* Extent-store report section ---------------------------------------------- *)

let test_extent_section () =
  let empty = Obs.create () in
  Alcotest.(check bool)
    "no extent activity, no section" true
    (App_report.extent_section empty = None);
  let sink = Obs.create () in
  Obs.with_sink sink (fun () ->
      (* Drive a real publish + read so the counters come from the extent
         store itself, not hand-rolled Obs.incr calls. *)
      let fd = Hpcfs_fs.Fdata.create () in
      Hpcfs_fs.Fdata.write fd ~rank:0 ~time:1 ~off:0
        (Bytes.make 64 'a');
      Hpcfs_fs.Fdata.commit fd ~rank:0 ~time:2;
      ignore
        (Hpcfs_fs.Fdata.read fd ~semantics:Hpcfs_fs.Consistency.Commit
           ~rank:1 ~time:3 ~off:0 ~len:64);
      (* A second publish folds into the now-built cache: a compaction. *)
      Hpcfs_fs.Fdata.write fd ~rank:0 ~time:4 ~off:32
        (Bytes.make 64 'b');
      Hpcfs_fs.Fdata.commit fd ~rank:0 ~time:5;
      ignore
        (Hpcfs_fs.Fdata.read fd ~semantics:Hpcfs_fs.Consistency.Commit
           ~rank:1 ~time:6 ~off:0 ~len:96));
  match App_report.extent_section sink with
  | None -> Alcotest.fail "expected an extent-store section"
  | Some (title, kvs) ->
    Alcotest.(check string) "section title" "PFS extent store" title;
    Alcotest.(check bool)
      "records the compaction" true
      (List.mem_assoc "compactions" kvs);
    Alcotest.(check bool)
      "records the read-path split" true
      (List.mem_assoc "fast_reads" kvs || List.mem_assoc "slow_reads" kvs)

let suite =
  [
    Alcotest.test_case "disabled no-op" `Quick test_disabled_noop;
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "with_sink nesting" `Quick test_with_sink_nesting;
    Alcotest.test_case "span on exception" `Quick test_span_records_on_exception;
    Alcotest.test_case "chrome golden" `Quick test_chrome_golden;
    Alcotest.test_case "csv golden" `Quick test_csv_golden;
    Alcotest.test_case "prometheus shape" `Quick test_prometheus_shape;
    Alcotest.test_case "chrome rank tracks" `Quick test_chrome_rank_tracks;
    Alcotest.test_case "run render stable" `Quick test_run_render_stable;
    Alcotest.test_case "run unchanged when disabled" `Quick
      test_run_disabled_unchanged;
    Alcotest.test_case "extent-store report section" `Quick test_extent_section;
  ]
