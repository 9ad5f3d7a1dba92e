(* The write-back staging core under the burst buffer and the write-ahead
   log, locked end to end: digests of every tier's statistics, the WAL
   fsck and the crash-consistency report rows over a grid of apps,
   engines, tiers and fault plans.  A moved digest means a tier's
   observable behaviour changed. *)

module Runner = Hpcfs_apps.Runner
module Registry = Hpcfs_apps.Registry
module Validation = Hpcfs_apps.Validation
module Consistency = Hpcfs_fs.Consistency
module Tier = Hpcfs_bb.Tier
module Drain = Hpcfs_bb.Drain
module Wal = Hpcfs_wal.Wal
module Plan = Hpcfs_fault.Plan
module Injector = Hpcfs_fault.Injector
module Report = Hpcfs_fault.Report

let engines =
  [
    Consistency.Strong;
    Consistency.Commit;
    Consistency.Session;
    Consistency.Eventual { delay = 16 };
  ]

type tier = Bb of Drain.t | Log

let tier_name = function Bb p -> "bb " ^ Drain.name p | Log -> "wal"

let tiers =
  [ Bb Drain.Sync_on_close; Bb Drain.default_async; Bb Drain.On_laminate; Log ]

(* [None] is the fault-free run; the transient-failure plan is the one
   the tier listens to (drain faults for the burst buffer, log-device
   faults for the WAL). *)
let plans = function
  | Bb _ ->
    [
      None;
      Some "crash:rank=1,io=7,restart=8";
      Some "drainfail:count=3";
      Some "ostfail:target=0,t=10,recover=64";
      Some "logcap=4096";
    ]
  | Log ->
    [
      None;
      Some "crash:rank=1,io=7,restart=8";
      Some "logfail:count=6";
      Some "ostfail:target=0,t=10,recover=64";
      Some "logcap=4096";
    ]

let fields b l =
  List.iter (fun (k, v) -> Printf.bprintf b "%s=%d " k v) l;
  Buffer.add_char b '\n'

let tier_stats b (s : Tier.stats) =
  fields b
    [
      ("writes", s.Tier.writes);
      ("reads", s.reads);
      ("bytes_written", s.bytes_written);
      ("bytes_read", s.bytes_read);
      ("staged", s.staged_bytes);
      ("drained", s.drained_bytes);
      ("stage_in", s.stage_in_bytes);
      ("stage_out", s.stage_out_bytes);
      ("hits", s.cache_hits);
      ("misses", s.cache_misses);
      ("stalls", s.drain_stalls);
      ("stalled", s.stalled_bytes);
      ("peak", s.peak_occupancy);
      ("stale_reads", s.stale_reads);
      ("stale_bytes", s.stale_bytes);
      ("faults", s.drain_faults);
      ("retries", s.drain_retries);
      ("backoff", s.drain_backoff_ticks);
      ("aborts", s.drain_aborts);
      ("target_down", s.drain_target_down);
      ("crash_lost", s.crash_lost_bytes);
    ]

let wal_stats b (s : Wal.stats) =
  fields b
    [
      ("writes", s.Wal.writes);
      ("reads", s.reads);
      ("bytes_written", s.bytes_written);
      ("bytes_read", s.bytes_read);
      ("appended", s.appended_bytes);
      ("drained", s.drained_bytes);
      ("flushes", s.flushes);
      ("stalls", s.stalls);
      ("stalled", s.stalled_bytes);
      ("peak", s.peak_occupancy);
      ("stale_reads", s.stale_reads);
      ("stale_bytes", s.stale_bytes);
      ("writethrough", s.writethrough_writes);
      ("writethrough_bytes", s.writethrough_bytes);
      ("log_faults", s.log_faults);
      ("log_retries", s.log_retries);
      ("log_backoff", s.log_backoff_ticks);
      ("log_aborts", s.log_aborts);
      ("target_down", s.drain_target_down);
      ("crash_lost", s.crash_lost_bytes);
      ("crash_torn", s.crash_torn_bytes);
      ("recovered", s.recovered_bytes);
    ]

let wal_check b (c : Wal.check_report) =
  List.iter
    (fun f ->
      Printf.bprintf b "%s " f.Wal.c_path;
      fields b
        [
          ( "verdict",
            match f.Wal.c_verdict with
            | Wal.Clean -> 0
            | Wal.Recovered -> 1
            | Wal.Corrupted -> 2 );
          ("recovered", f.c_recovered_bytes);
          ("lost", f.c_lost_bytes);
          ("torn", f.c_torn_bytes);
          ("pending", f.c_pending_bytes);
        ])
    c.Wal.files

let app_body label =
  match Registry.find label with
  | Some e -> e.Registry.body
  | None -> Alcotest.failf "no catalogue entry %s" label

(* Every engine of one (app, tier, plan) cell, rendered and digested.  A
   faulted cell adds the report row [hpcfs_analyze faults --csv] writes,
   compared against a strong direct reference as {!Validation.crash_report}
   does. *)
let cell_digest ~app ~reference tier plan =
  let body = app_body app in
  let b = Buffer.create 4096 in
  List.iter
    (fun semantics ->
      let tier_cfg, wal_cfg =
        match tier with
        | Bb policy -> (Some { Tier.default_config with Tier.policy }, None)
        | Log -> (None, Some Wal.default_config)
      in
      let faults =
        Option.map
          (fun spec -> Result.get_ok (Plan.of_string ~seed:42 spec))
          plan
      in
      let r =
        Test_mpi.with_legacy_sched (fun () ->
            Runner.run ~semantics ~nprocs:8 ?tier:tier_cfg ?wal:wal_cfg
              ?faults body)
      in
      Option.iter (fun t -> tier_stats b (Tier.stats t)) r.Runner.tier;
      Option.iter (fun w -> wal_stats b (Wal.stats w)) r.Runner.wal;
      match r.Runner.faults with
      | None -> Option.iter (fun w -> wal_check b (Wal.check w)) r.Runner.wal
      | Some o ->
        Option.iter (wal_check b) o.Injector.o_wal_check;
        let digests = Validation.final_digests r in
        let post_corrupted =
          List.length
            (List.filter
               (fun (path, d) -> List.assoc_opt path digests <> Some d)
               reference)
        in
        Buffer.add_string b
          (Report.to_csv
             [
               Report.row_of_outcome ~app
                 ~semantics:(Validation.sem_name semantics)
                 ~post_files:(List.length reference) ~post_corrupted o;
             ]))
    engines;
  Digest.to_hex (Digest.string (Buffer.contents b))

let plan_name = function None -> "none" | Some p -> p

let actual app tier =
  let reference =
    Validation.final_digests
      (Test_mpi.with_legacy_sched (fun () ->
           Runner.run ~semantics:Consistency.Strong ~nprocs:8 (app_body app)))
  in
  List.map
    (fun plan -> (plan_name plan, cell_digest ~app ~reference tier plan))
    (plans tier)

(* Digests per (app, tier), one per fault plan, taken before the burst
   buffer and the write-ahead log shared a staging core.  The burst
   buffer's sync-close and async ostfail cells were taken again once its
   drains stopped at a blocked extent: it tries fewer drains against the
   down target (drain_target_down), and every byte lands the same. *)
let golden =
  [
    ( "pF3D-IO",
      "bb sync-close",
      [
        ("none", "8f4b46654020abc925c5b4b7609e71f5");
        ("crash:rank=1,io=7,restart=8", "890d58392eb12230e9b8ea1455af6cc5");
        ("drainfail:count=3", "6c2da4e2a8c319cdf237cf09c8ee2449");
        ("ostfail:target=0,t=10,recover=64", "0c8a4494e180b37fc1c511ac51edfdd4");
        ("logcap=4096", "ddf9a7646deccf0f4477534ec58f9163");
      ] );
    ( "pF3D-IO",
      "bb async",
      [
        ("none", "27c5173641db8efbfee5a4b2b66ef998");
        ("crash:rank=1,io=7,restart=8", "628b75cbd152a85d7039563570d0526c");
        ("drainfail:count=3", "0fa7318d5a50e4f153fd06db14f36b33");
        ("ostfail:target=0,t=10,recover=64", "cf0ac6147ecbfadeea1728ae06ca7c8c");
        ("logcap=4096", "a7bf09b982f52a4e6ed2dc12984d009d");
      ] );
    ( "pF3D-IO",
      "bb laminate",
      [
        ("none", "a6dd20877d66e6267335b0cbede236e7");
        ("crash:rank=1,io=7,restart=8", "62b0d6ee542632f13d8f8d05e1006779");
        ("drainfail:count=3", "d6884f9a9814f5c21713288dc05d7456");
        ("ostfail:target=0,t=10,recover=64", "0f139bb4dc1f62f2fe2c46e28dfe4b66");
        ("logcap=4096", "407dccabbceb0685afeb735fd18d4aa5");
      ] );
    ( "pF3D-IO",
      "wal",
      [
        ("none", "4fd029ffad26ebe237f400b9baa9fa1f");
        ("crash:rank=1,io=7,restart=8", "a86dfebe556fb09ca149a7e5b665ab94");
        ("logfail:count=6", "3d6a20f6a7f5bf038ae5c1db53a9f1a2");
        ("ostfail:target=0,t=10,recover=64", "929beb3fc23f954bbee6b79cef4124e1");
        ("logcap=4096", "76153f6f67ced2634032ac9e6db8a8ab");
      ] );
    ( "HACC-IO-POSIX",
      "bb sync-close",
      [
        ("none", "01066b813c92fc264602d1082aa39d50");
        ("crash:rank=1,io=7,restart=8", "a0a484482f07d6423470f245e3540333");
        ("drainfail:count=3", "e388e770b911ef1b2ad7c6735fb117b4");
        ("ostfail:target=0,t=10,recover=64", "5c28a205ae9dca6b41f914a31865deb8");
        ("logcap=4096", "992340ecde625b264e5d260be641bf0f");
      ] );
    ( "HACC-IO-POSIX",
      "bb async",
      [
        ("none", "d70153fee8b51b65a845873571a165c6");
        ("crash:rank=1,io=7,restart=8", "ad2f899d3470038ed69695b2f7af4ccf");
        ("drainfail:count=3", "207633d80a02c03bb33df1fe49562338");
        ("ostfail:target=0,t=10,recover=64", "97ce7998e63b3893d93e0254925188a0");
        ("logcap=4096", "01ef259e4f2ca21f27cd2004ae9e8376");
      ] );
    ( "HACC-IO-POSIX",
      "bb laminate",
      [
        ("none", "e4288bbbd04cc8f6d76dfc68ca519335");
        ("crash:rank=1,io=7,restart=8", "aec49447094e5ca767f2a31333b50720");
        ("drainfail:count=3", "e600b97ebffac328c089d95f4b6578d0");
        ("ostfail:target=0,t=10,recover=64", "8b75de80a6fb1cd2b33c299b4c6d2047");
        ("logcap=4096", "a27c312dbcb9228944eac78a30ec218d");
      ] );
    ( "HACC-IO-POSIX",
      "wal",
      [
        ("none", "bb4fc5e2eb22689f4bcc7e73e707d613");
        ("crash:rank=1,io=7,restart=8", "faa32b830a678959e76145b9938deef2");
        ("logfail:count=6", "fc68e682ce2cfb851dab16c31be85ab5");
        ("ostfail:target=0,t=10,recover=64", "8ec7b82642e0a68d037c050ba54f5831");
        ("logcap=4096", "bc9cfe9810a1b2cb81a207632fb6fc64");
      ] );
    ( "FLASH-fbs",
      "bb sync-close",
      [
        ("none", "cdaaff9fdf959b442f428d1e012d1536");
        ("crash:rank=1,io=7,restart=8", "8867cfbe2bafe42ce0a540410466823b");
        ("drainfail:count=3", "b923f652d68b50d15b3f3ef41934f261");
        ("ostfail:target=0,t=10,recover=64", "8f46fc895e1bcee5c513f314afe70e18");
        ("logcap=4096", "aa1f08a1328176a5363d1878893604f8");
      ] );
    ( "FLASH-fbs",
      "bb async",
      [
        ("none", "e32bc7d787f0c3b245791e997653e771");
        ("crash:rank=1,io=7,restart=8", "0183a3832ccbc4bdb8902b6b3d13a1cf");
        ("drainfail:count=3", "bb0ab17911ad887dde29f6a4cdbb9346");
        ("ostfail:target=0,t=10,recover=64", "d691a5053d9004060b05ddd32b5d6980");
        ("logcap=4096", "de8e0a3f840727be7af3ea0a5fe54ac6");
      ] );
    ( "FLASH-fbs",
      "bb laminate",
      [
        ("none", "e276e943797ecee58def5c3721befe98");
        ("crash:rank=1,io=7,restart=8", "9b7669e044275ac8471120219a832b12");
        ("drainfail:count=3", "ea4648fa21bd666ef723281a155d7bd9");
        ("ostfail:target=0,t=10,recover=64", "ba2383cf131fd3d511129a93344a4da6");
        ("logcap=4096", "8d599f3a95105a0987d76e70744cfb6b");
      ] );
    ( "FLASH-fbs",
      "wal",
      [
        ("none", "677e5178bbc8eb3405dc75b04a5a8217");
        ("crash:rank=1,io=7,restart=8", "f9a0eb8640fd3f0be66dbaac1f61fd0d");
        ("logfail:count=6", "0c9f4f8b06612ac43d2c355aacc83599");
        ("ostfail:target=0,t=10,recover=64", "15067c475a0f5cb2ac522b194bca13ba");
        ("logcap=4096", "6bbbbdc971e0e1e65ca22c729394bed5");
      ] );
  ]

let test_golden (app, tier_label, want) () =
  let tier = List.find (fun t -> tier_name t = tier_label) tiers in
  let got = actual app tier in
  List.iter2
    (fun (plan, want) (_, got) ->
      Alcotest.(check string)
        (Printf.sprintf "%s / %s / %s" app tier_label plan)
        want got)
    want got

let suite =
  List.map
    (fun ((app, tier, _) as g) ->
      Alcotest.test_case
        (Printf.sprintf "golden %s %s" app tier)
        `Quick (test_golden g))
    golden
