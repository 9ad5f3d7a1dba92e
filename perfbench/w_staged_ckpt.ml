(* staged_ckpt: the `bench logging` checkpoint spec plus a read-back, run
   under the four engines through three write paths — direct PFS, burst
   buffer with async drain, write-ahead log — then crashed and restarted
   through the burst buffer and the log.

   The only workload that runs lib/bb, lib/wal, lib/fault and recovery;
   a refactor of the write-back staging paths must leave it flat. *)

module Runner = Hpcfs_apps.Runner
module Validation = Hpcfs_apps.Validation
module Consistency = Hpcfs_fs.Consistency
module Tier = Hpcfs_bb.Tier
module Drain = Hpcfs_bb.Drain
module Wal = Hpcfs_wal.Wal
module Plan = Hpcfs_fault.Plan
module Fault_report = Hpcfs_fault.Report
module Workload = Hpcfs_wl.Workload
module Compile = Hpcfs_wl.Compile
module Prng = Hpcfs_util.Prng

let spec =
  "checkpoint:steps=6,every=2,layout=fpp,block=4096,count=16;barrier;\
   read:layout=fpp,file=ckpt-0001,block=4096,count=16"

let engines =
  [
    Consistency.Strong;
    Consistency.Commit;
    Consistency.Session;
    Consistency.Eventual { delay = 16 };
  ]

let tier = { Tier.default_config with Tier.policy = Drain.default_async }
let wal = Wal.default_config

type path = Direct | Bb | Log

let path_name = function Direct -> "direct" | Bb -> "bb" | Log -> "wal"

let ok = function Ok v -> v | Error e -> failwith e

type inputs = { nprocs : int; body : Runner.env -> unit; plan : Plan.t }

let run p inputs semantics path =
  let tier = if path = Bb then Some tier else None in
  let wal = if path = Log then Some wal else None in
  let t0 = Measure.now () in
  let r =
    Measure.phase p ~gc:"sim" "sim.run_s" (fun () ->
        Runner.run ~semantics ~nprocs:inputs.nprocs ?tier ?wal inputs.body)
  in
  Measure.add p ("staged." ^ path_name path ^ "_s") (Measure.now () -. t0);
  r

let digests p r =
  Measure.phase p ~gc:"staged" "apps.digest_s" (fun () ->
      Validation.final_digests r)

let fault_free p b inputs semantics =
  let engine = Validation.sem_name semantics in
  let direct = ref [] in
  Common.job b ("direct/" ^ engine) (fun () ->
      let r = run p inputs semantics Direct in
      let d = digests p r in
      direct := d;
      (List.length r.Runner.records, [ ("files written", d <> []) ], d));
  Common.job b ("bb/" ^ engine) (fun () ->
      let r = run p inputs semantics Bb in
      let d = digests p r in
      ( List.length r.Runner.records,
        [ ("burst-buffer contents equal direct", d = !direct) ],
        d ));
  Common.job b ("wal/" ^ engine) (fun () ->
      let r = run p inputs semantics Log in
      let d = digests p r in
      let w = Option.get r.Runner.wal in
      let c =
        Measure.phase p ~gc:"staged" "wal.check_s" (fun () -> Wal.check w)
      in
      let s = Wal.stats w in
      ( List.length r.Runner.records,
        [
          ("log contents equal direct", d = !direct);
          ( "log byte classes sum to the appended bytes",
            s.Wal.drained_bytes + c.Wal.pending_bytes + c.Wal.lost_bytes
            + c.Wal.torn_bytes
            = s.Wal.appended_bytes );
          ("fsck clean", c.Wal.corrupted = 0);
        ],
        (d, c) ))

let crash p b inputs path =
  let label = "crash/" ^ path_name path in
  Common.job b label (fun () ->
      let tier = if path = Bb then Some tier else None in
      let wal = if path = Log then Some wal else None in
      let rows =
        Measure.phase p ~gc:"staged" "fault.crash_report_s" (fun () ->
            Validation.crash_report ~nprocs:inputs.nprocs ~semantics:engines
              ?tier ?wal ~app:("staged_ckpt/" ^ label) ~plan:inputs.plan
              inputs.body)
      in
      ( 0,
        [
          ("one row per engine", List.length rows = List.length engines);
          ( "every engine crashed and restarted",
            List.for_all
              (fun r ->
                r.Fault_report.r_crashed && r.Fault_report.r_restarts = 1)
              rows );
        ],
        rows ))

let iterate inputs p =
  let b = Common.batch () in
  List.iter (fault_free p b inputs) engines;
  crash p b inputs Bb;
  crash p b inputs Log;
  if p.Measure.on then begin
    let s name = Measure.get p ("staged." ^ name ^ "_s") in
    Measure.add p "bb.overhead_s" (s "bb" -. s "direct");
    Measure.add p "wal.overhead_s" (s "wal" -. s "direct")
  end;
  Common.finish b

let nprocs = 32

let setup ~seed =
  let body = Compile.body (ok (Workload.of_string spec)) in
  (* Rank 1 dies mid-burst in its first checkpoint epoch (backend calls
     1-18: open, 16 writes, close), as in `bench logging`.  The seed feeds
     the plan's own generator, which decides how much of the torn write
     survives; where the crash lands is fixed, because it sets how much
     work the restart repeats. *)
  let plan =
    ok
      (Plan.of_string
         ~seed:(Prng.int (Prng.create seed) 1_000_000)
         "crash:rank=1,io=10,restart=64")
  in
  let inputs = { nprocs; body; plan } in
  (* Warm-up: one direct run per engine, untimed. *)
  List.iter
    (fun semantics -> ignore (Runner.run ~semantics ~nprocs body))
    engines;
  { Common.iterate = iterate inputs; verify = (fun () -> []); cleanup = ignore }

let workload =
  {
    Common.name = "staged_ckpt";
    self_times =
      [ "sim.self_s"; "apps.digest_s"; "wal.check_s"; "fault.crash_report_s" ];
    setup;
  }
