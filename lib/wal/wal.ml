module Pfs = Hpcfs_fs.Pfs
module Fdata = Hpcfs_fs.Fdata
module Backend = Hpcfs_fs.Backend
module Namespace = Hpcfs_fs.Namespace
module Consistency = Hpcfs_fs.Consistency
module Staging = Hpcfs_fs.Staging
module Target = Hpcfs_fs.Target
module Backoff = Hpcfs_util.Backoff
module Obs = Hpcfs_obs.Obs

type config = {
  ranks_per_node : int;
  bandwidth_bytes_per_tick : int;
  drain_interval : int;
  capacity_per_node : int option;
  retry : Backoff.policy;
}

let default_config =
  {
    ranks_per_node = 4;
    bandwidth_bytes_per_tick = 65536;
    drain_interval = 32;
    capacity_per_node = None;
    retry = Backoff.default;
  }

(* The log is a journal over the staging core: a record stays in its
   file's queue after replay ([Applied]), so a crash or a target failure
   can revert it to the log and replay it again. *)
type t = {
  core : Staging.t;
  config : config;
  (* Publication watermarks per (rank, path), mirroring {!Journal}: which
     applied records are already persisted server-side decides what a
     storage failure forces us to re-replay. *)
  marks : Staging.marks;
  (* Log-device flush watermark per node: the newest fsync/close any rank
     of the node completed.  Records appended strictly before it are on
     the log platter and survive the node's crash. *)
  flushed : (int, int) Hashtbl.t;
  mutable cap_override : int option; (* a plan's logcap=BYTES *)
  mutable flushes : int;
  writethrough : Staging.counter;
  writethrough_bytes : Staging.counter;
  crash_torn : Staging.counter;
  mutable backend : Backend.t;
}

let set_fault t ?prng hook = Staging.set_fault t.core ?prng hook
let set_cap_override t cap = t.cap_override <- cap
let pfs t = Staging.pfs t.core
let config t = t.config
let occupancy t = Staging.occupancy t.core
let node_of_rank t rank = Staging.node_of_rank t.core rank
let semantics t = Pfs.semantics (pfs t)

let effective_cap t =
  match (t.config.capacity_per_node, t.cap_override) with
  | None, c | c, None -> c
  | Some a, Some b -> Some (min a b)

let flushed t node =
  Option.value ~default:min_int (Hashtbl.find_opt t.flushed node)

(* Is the log copy of [r] on stable log media as of [time]?  Strong mode
   runs the log synchronously (every append hits the platter — the price
   of replay-before-visibility with no loss window); under commit/session
   an fsync or close by any rank of the node flushes the whole node log;
   under eventual an aged-out record has already been published, so its
   log copy no longer matters. *)
let durable t (r : Staging.record) ~time =
  flushed t r.node > r.time
  ||
  match semantics t with
  | Consistency.Strong -> true
  | Consistency.Eventual { delay } -> r.time + delay <= time
  | Consistency.Commit | Consistency.Session -> false

(* Is an applied record already persisted server-side?  Settled bytes
   survive a target failure on their own; unsettled ones must be
   re-replayed from the log. *)
let settled_at t (r : Staging.record) ~time =
  Staging.settled t.marks (semantics t) ~rank:r.rank ~path:r.file
    ~issued:r.time ~time

let bg_drain t ~time =
  Staging.paced_drain t.core ~time ~bandwidth:t.config.bandwidth_bytes_per_tick
    ~interval:t.config.drain_interval

(* The publication rule per engine: which operations must wait for the
   file's replay.  Strong publishes on arrival, so visibility is enforced
   at reads instead; commit publishes on fsync (and close, which also
   commits); session publishes on close only; eventual publishes by age
   alone — nothing synchronous. *)
let flush_on t op =
  match (semantics t, op) with
  | (Consistency.Strong | Consistency.Commit), _ | Consistency.Session, `Close -> true
  | Consistency.Session, `Fsync | Consistency.Eventual _, _ -> false

let flush_file t ~time path =
  Staging.stall t.core (Staging.drain_file t.core ~time path)

(* Strong: the whole file is replayed before the read observes it.
   Eventual: every record whose TTL elapsed is, and the queue is
   issue-time ordered, so that is a prefix. *)
let visibility_drain t ~time path =
  match semantics t with
  | Consistency.Strong -> flush_file t ~time path
  | Consistency.Eventual { delay } ->
    ignore (Staging.drain_file t.core ~upto:(time - delay) ~time path)
  | Consistency.Commit | Consistency.Session -> ()

(* Data surface ------------------------------------------------------------- *)

let open_file t ~time ~rank ~create ~trunc path =
  bg_drain t ~time;
  if trunc then begin
    (* Apply everything logged first, then let the PFS cut it: the file
       ends up with exactly the write-then-truncate history of a direct
       run.  Records still blocked behind a dead target are truncated in
       the log — they would have been cut on the PFS anyway. *)
    ignore (Staging.drain_file t.core ~time path);
    Staging.truncate t.core path 0
  end;
  ignore (Pfs.open_file (pfs t) ~time ~rank ~create ~trunc path);
  Staging.file_size t.core path

let note_flush t ~time ~rank =
  let node = node_of_rank t rank in
  Hashtbl.replace t.flushed node (max (flushed t node) time);
  t.flushes <- t.flushes + 1

let close_file t ~time ~rank path =
  bg_drain t ~time;
  if flush_on t `Close then flush_file t ~time path;
  note_flush t ~time ~rank;
  Pfs.close_file (pfs t) ~time ~rank path;
  Staging.note_close t.marks ~rank ~path ~time

let fsync t ~time ~rank path =
  bg_drain t ~time;
  if flush_on t `Fsync then flush_file t ~time path;
  note_flush t ~time ~rank;
  Pfs.fsync (pfs t) ~time ~rank path;
  Staging.note_commit t.marks ~rank ~path ~time

(* Degrade one write to a direct PFS write (log device dead, or log full
   past eviction).  The file's logged records must land first or its write
   history would be reordered; when the replay head is blocked by a down
   target — or the direct write itself finds the target down — the record
   goes to the log after all (the controller buffers the append). *)
let write_through t ~time ~rank node path ~off data =
  flush_file t ~time path;
  let fallback () = Staging.append t.core ~time ~rank node path ~off data in
  if Staging.bytes_in t.core path Staged > 0 then fallback ()
  else
    match Pfs.write (pfs t) ~time ~rank path ~off data with
    | () ->
      Staging.count t.writethrough 1;
      Staging.count t.writethrough_bytes (Bytes.length data)
    | exception Target.Target_down _ -> fallback ()

let write t ~time ~rank path ~off data =
  bg_drain t ~time;
  let len = Bytes.length data in
  Staging.begin_write t.core path ~off len;
  if len > 0 then begin
    let node = Staging.node t.core (node_of_rank t rank) in
    let over_cap () =
      match effective_cap t with
      | Some cap -> node.pending + len > cap
      | None -> false
    in
    (* The logfail retry loop: a write whose append exhausts its retry
       budget degrades to write-through. *)
    if not (Staging.admitted t.core ~node:node.id ~time) then
      write_through t ~time ~rank node path ~off data
    else begin
      (* Log-full backpressure: replay from the global head until this
         node's log fits the record — the stall a checkpoint burst pays
         when it outruns the drain bandwidth. *)
      if over_cap () then Staging.evict t.core ~time over_cap;
      if over_cap () then write_through t ~time ~rank node path ~off data
      else Staging.append t.core ~time ~rank node path ~off data
    end
  end

let read t ~time ~rank path ~off ~len =
  bg_drain t ~time;
  visibility_drain t ~time path;
  let size = Staging.file_size t.core path in
  let n = max 0 (min len (max 0 (size - off))) in
  let base = Staging.pfs_read t.core ~time ~rank path ~off ~len:n in
  let buf = Bytes.make n '\000' in
  Bytes.blit base.Fdata.data 0 buf 0 (Bytes.length base.Fdata.data);
  (* Read-your-writes: the caller's own still-logged records are painted
     on top, in append order — the same local-order guarantee the PFS
     gives a process for its own unpublished writes. *)
  Staging.iter_file t.core path (fun r ->
      if r.state = Staged && r.rank = rank then Staging.paint ~off buf r);
  Staging.finish_read t.core path ~off buf

let truncate t ~time path len =
  bg_drain t ~time;
  ignore (Staging.drain_file t.core ~time path);
  Pfs.truncate (pfs t) ~time path len;
  Staging.truncate t.core path len

let create ?(config = default_config) pfs =
  let core =
    Staging.create ~label:"Wal" ~prefix:"wal" ~track:Obs.T_wal
      ~staged:"appended_bytes" ~fault:"log" ~drain_event:"wal-drain"
      ~stall_event:"wal-stall" ~stall_histogram:false ~gate_drains:false
      ~ranks_per_node:config.ranks_per_node ~retry:config.retry pfs
  in
  let t =
    {
      core;
      config;
      marks = Staging.marks ();
      flushed = Hashtbl.create 16;
      cap_override = None;
      flushes = 0;
      writethrough = Staging.counter "wal.writethrough";
      writethrough_bytes = Staging.counter "wal.writethrough_bytes";
      crash_torn = Staging.counter "wal.crash_torn_bytes";
      backend = Backend.of_pfs pfs;
    }
  in
  t.backend <-
    Staging.backend core ~open_file:(open_file t) ~close_file:(close_file t)
      ~read:(read t) ~write:(write t) ~fsync:(fsync t) ~truncate:(truncate t);
  t

(* The locked data surface.  Under the parallel scheduler the append
   order of racing ranks is interleaving-dependent, so WAL runs make their
   determinism claims on the legacy scheduler (like faulted runs do). *)
let backend t = t.backend

let open_file t ~time ~rank ?(create = false) ?(trunc = false) path =
  t.backend.open_file ~time ~rank ~create ~trunc path

let close_file t = t.backend.close_file
let fsync t = t.backend.fsync
let write t = t.backend.write
let read t = t.backend.read
let truncate t = t.backend.truncate
let file_size t = t.backend.file_size

let drain_all t =
  Staging.locked t.core (fun () -> Staging.drain_all t.core ~time:max_int)

(* Failure handling --------------------------------------------------------- *)

(* Lost and torn records keep their bytes: the fsck classifies by them. *)
let lose (r : Staging.record) state total =
  r.state <- state;
  total := !total + Bytes.length r.data

(* Revert, in every unlaminated file, the applied suffix starting at the
   first applied record [from] selects: the whole suffix returns to the
   log, settled or not, so re-replay rebuilds the file's history in issue
   order.  With [mark_logged], records still in the log are marked as
   recoveries too. *)
let revert_suffix t ?(mark_logged = false) from =
  Staging.iter_files t.core (fun path q ->
      if not (Staging.laminated (pfs t) path) then begin
        let reverting = ref false in
        Queue.iter
          (fun (r : Staging.record) ->
            match r.state with
            | Applied ->
              if (not !reverting) && from r then reverting := true;
              if !reverting then begin
                r.state <- Staged;
                r.recover <- true
              end
            | Staged -> if mark_logged then r.recover <- true
            | Dropped | Lost | Torn -> ())
          q
      end);
  Staging.requeue t.core

type crash_summary = { lost_bytes : int; torn_bytes : int }

(* A whole-job crash.  Pass 1: the victim node's log loses its un-flushed
   tail, torn at a record boundary — the newest non-durable record is the
   in-flight append (Torn), the rest of the tail is Lost.  Pass 2 (every
   node, and the only pass for a victimless MDS abort): the PFS is about
   to drop its unpublished bytes, so every applied-but-unsettled record —
   and everything applied after it in the same file — reverts to the log
   for re-replay.  Surviving logged records are marked as recoveries.
   Call this before {!Pfs.crash}. *)
let on_crash t ?victim ~time () =
  Staging.locked t.core @@ fun () ->
  let lost = ref 0 and torn = ref 0 in
  (match Option.map (Staging.node t.core) victim with
  | None -> ()
  | Some node ->
    (* The node log is newest first: its first lost record is the
       in-flight append. *)
    List.iter
      (fun (r : Staging.record) ->
        match r.state with
        | Staged when not (durable t r ~time) ->
          if !torn = 0 then lose r Torn torn else lose r Lost lost
        | Applied when not (durable t r ~time) ->
          (* The PFS may still persist settled bytes; only the log copy is
             gone.  An unsettled applied record whose bytes the PFS drops
             has no log copy to replay from: lost. *)
          if not (Staging.laminated (pfs t) r.file || settled_at t r ~time) then
            lose r Lost lost
        | _ -> ())
      node.log);
  revert_suffix t ~mark_logged:true (fun r -> not (settled_at t r ~time));
  if !lost > 0 then Staging.count (Staging.counters t.core).crash_lost !lost;
  if !torn > 0 then Staging.count t.crash_torn !torn;
  { lost_bytes = !lost; torn_bytes = !torn }

(* A storage target failed: its unpersisted chunks are gone from the PFS,
   but every record lives host-side in the log.  Park the affected applied
   records — and the rest of each file's applied suffix — for journal-style
   re-replay once the target recovers or fails over. *)
let on_target_fail t ~time ~target =
  Staging.locked t.core @@ fun () ->
  revert_suffix t (fun r ->
      Staging.touches_target (pfs t) ~off:r.off ~len:(Bytes.length r.data)
        ~target
      && not (settled_at t r ~time))

(* Post-crash fsck, mirroring {!Hpcfs_fs.Recovery.check}: a final replay
   pass, then per-file classification of what the log brought back and
   what the crash semantics allowed to disappear. *)
type verdict = Clean | Recovered | Corrupted

let verdict_name = function
  | Clean -> "clean"
  | Recovered -> "recovered"
  | Corrupted -> "corrupted"

type file_check = {
  c_path : string;
  c_verdict : verdict;
  c_recovered_bytes : int;
  c_lost_bytes : int;
  c_torn_bytes : int;
  c_pending_bytes : int;
}

type check_report = {
  files : file_check list;
  recovered_bytes : int;
  lost_bytes : int;
  torn_bytes : int;
  pending_bytes : int;
  clean : int;
  recovered : int;
  corrupted : int;
}

let check t =
  ignore (drain_all t);
  let paths = List.sort compare (Namespace.all_files (Pfs.namespace (pfs t))) in
  let files =
    List.map
      (fun path ->
        let pending = Staging.bytes_in t.core path Staged in
        let lost = Staging.bytes_in t.core path Lost in
        let torn = Staging.bytes_in t.core path Torn in
        let recovered = Staging.recovered_bytes t.core path in
        let verdict =
          if lost + torn + pending > 0 then Corrupted
          else if recovered > 0 then Recovered
          else Clean
        in
        {
          c_path = path;
          c_verdict = verdict;
          c_recovered_bytes = recovered;
          c_lost_bytes = lost;
          c_torn_bytes = torn;
          c_pending_bytes = pending;
        })
      paths
  in
  let count v = List.length (List.filter (fun f -> f.c_verdict = v) files) in
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 files in
  {
    files;
    recovered_bytes = sum (fun f -> f.c_recovered_bytes);
    lost_bytes = sum (fun f -> f.c_lost_bytes);
    torn_bytes = sum (fun f -> f.c_torn_bytes);
    pending_bytes = sum (fun f -> f.c_pending_bytes);
    clean = count Clean;
    recovered = count Recovered;
    corrupted = count Corrupted;
  }

let pp_check ppf r =
  Format.fprintf ppf "wal-fsck: %d files, %d clean, %d recovered, %d corrupted"
    (List.length r.files) r.clean r.recovered r.corrupted;
  if r.recovered_bytes > 0 then
    Format.fprintf ppf "; %d B replayed from the log" r.recovered_bytes;
  if r.lost_bytes + r.torn_bytes > 0 then
    Format.fprintf ppf "; %d B lost, %d B torn" r.lost_bytes r.torn_bytes;
  if r.pending_bytes > 0 then
    Format.fprintf ppf "; %d B unreplayable" r.pending_bytes;
  List.iter
    (fun f ->
      if f.c_verdict <> Clean then
        Format.fprintf ppf "@.  %-24s %-9s recovered=%dB lost=%dB torn=%dB"
          f.c_path (verdict_name f.c_verdict) f.c_recovered_bytes
          (f.c_lost_bytes + f.c_pending_bytes)
          f.c_torn_bytes)
    r.files

(* Statistics --------------------------------------------------------------- *)

type stats = {
  writes : int;
  reads : int;
  bytes_written : int;
  bytes_read : int;
  appended_bytes : int;
  drained_bytes : int;
  flushes : int;
  stalls : int;
  stalled_bytes : int;
  peak_occupancy : int;
  stale_reads : int;
  stale_bytes : int;
  writethrough_writes : int;
  writethrough_bytes : int;
  log_faults : int;
  log_retries : int;
  log_backoff_ticks : int;
  log_aborts : int;
  drain_target_down : int;
  crash_lost_bytes : int;
  crash_torn_bytes : int;
  recovered_bytes : int;
}

let stats t =
  let c = Staging.counters t.core in
  {
    writes = c.writes.n;
    reads = c.reads.n;
    bytes_written = c.bytes_written.n;
    bytes_read = c.bytes_read.n;
    appended_bytes = c.staged.n;
    drained_bytes = c.drained.n;
    flushes = t.flushes;
    stalls = c.stalls.n;
    stalled_bytes = c.stalled_bytes.n;
    peak_occupancy = c.peak;
    stale_reads = c.stale_reads;
    stale_bytes = c.stale_bytes;
    writethrough_writes = t.writethrough.n;
    writethrough_bytes = t.writethrough_bytes.n;
    log_faults = c.faults.n;
    log_retries = c.retries.n;
    log_backoff_ticks = c.backoff_ticks.n;
    log_aborts = c.aborts.n;
    drain_target_down = c.target_down.n;
    crash_lost_bytes = c.crash_lost.n;
    crash_torn_bytes = t.crash_torn.n;
    recovered_bytes = c.recovered.n;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>writes: %d (%d B)  reads: %d (%d B)@,\
     appended: %d B  replayed: %d B  backlog never replayed: %d B@,\
     flush stalls: %d (%d B)  peak log occupancy: %d B  stale reads: %d (%d B)"
    s.writes s.bytes_written s.reads s.bytes_read s.appended_bytes
    s.drained_bytes
    (s.appended_bytes - s.drained_bytes)
    s.stalls s.stalled_bytes s.peak_occupancy s.stale_reads s.stale_bytes;
  (* Fault counters appear only when faults were injected, so fault-free
     output never changes shape. *)
  if s.log_faults > 0 || s.writethrough_writes > 0 then
    Format.fprintf ppf
      "@,log faults: %d (%d retries, %d backoff ticks, %d aborts)  \
       write-through: %d (%d B)"
      s.log_faults s.log_retries s.log_backoff_ticks s.log_aborts
      s.writethrough_writes s.writethrough_bytes;
  if s.crash_lost_bytes > 0 || s.crash_torn_bytes > 0 || s.recovered_bytes > 0
  then
    Format.fprintf ppf
      "@,crash lost: %d B  torn: %d B  recovered by replay: %d B"
      s.crash_lost_bytes s.crash_torn_bytes s.recovered_bytes;
  if s.drain_target_down > 0 then
    Format.fprintf ppf "@,replays refused by down target: %d"
      s.drain_target_down;
  Format.fprintf ppf "@]"
