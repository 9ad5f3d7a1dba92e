module Pfs = Hpcfs_fs.Pfs
module Fdata = Hpcfs_fs.Fdata
module Backend = Hpcfs_fs.Backend
module Staging = Hpcfs_fs.Staging
module Interval = Hpcfs_util.Interval
module Obs = Hpcfs_obs.Obs

type config = {
  ranks_per_node : int;
  policy : Drain.t;
  capacity_per_node : int option;
  retry : Drain.retry;
}

let default_config =
  {
    ranks_per_node = 4;
    policy = Drain.Sync_on_close;
    capacity_per_node = None;
    retry = Drain.default_retry;
  }

(* The burst buffer is a cache over the staging core: a record stays in its
   node's log after it drains, as a clean read cache, until the next open
   of the file on that node invalidates it. *)
type t = {
  core : Staging.t;
  config : config;
  snapshots : (int * string, bytes) Hashtbl.t; (* stage_in read caches *)
  stage_in : Staging.counter;
  stage_out : Staging.counter;
  hits : Staging.counter;
  misses : Staging.counter;
  mutable backend : Backend.t;
}

let pfs t = Staging.pfs t.core
let config t = t.config
let occupancy t = Staging.occupancy t.core
let node_of_rank t rank = Staging.node_of_rank t.core rank
let set_fault t ?prng hook = Staging.set_fault t.core ?prng hook

let maybe_async_drain t ~time =
  match t.config.policy with
  | Drain.Async { bandwidth_bytes_per_tick; drain_interval } ->
    Staging.paced_drain t.core ~time ~bandwidth:bandwidth_bytes_per_tick
      ~interval:drain_interval
  | Drain.Sync_on_close | Drain.On_laminate -> ()

(* The synchronous flush a close or fsync performs for the caller's node,
   according to the policy. *)
let flush_for_commit t ~node ~time path =
  match t.config.policy with
  | Drain.Sync_on_close | Drain.Async _ ->
    Staging.stall t.core (Staging.drain_file t.core ~node ~time path)
  | Drain.On_laminate -> ()

let truncate_staged t path len =
  Staging.truncate t.core path len;
  Hashtbl.filter_map_inplace
    (fun (_, p) snap ->
      Some
        (if p = path && Bytes.length snap > len then Bytes.sub snap 0 len
         else snap))
    t.snapshots

(* Data surface ------------------------------------------------------------- *)

let open_file t ~time ~rank ~create ~trunc path =
  maybe_async_drain t ~time;
  let node = Staging.node t.core (node_of_rank t rank) in
  (* Close-to-open cache invalidation: the opening node drops its clean
     (drained) cached extents and any stage-in snapshot, so it re-reads
     whatever the PFS makes visible.  Dirty (undrained) extents stay. *)
  Hashtbl.remove t.snapshots (node.id, path);
  Staging.invalidate t.core node path;
  ignore (Pfs.open_file (pfs t) ~time ~rank ~create ~trunc path);
  if trunc then truncate_staged t path 0;
  Staging.file_size t.core path

let close_file t ~time ~rank path =
  maybe_async_drain t ~time;
  flush_for_commit t ~node:(node_of_rank t rank) ~time path;
  Pfs.close_file (pfs t) ~time ~rank path

let fsync t ~time ~rank path =
  maybe_async_drain t ~time;
  flush_for_commit t ~node:(node_of_rank t rank) ~time path;
  Pfs.fsync (pfs t) ~time ~rank path

let write t ~time ~rank path ~off data =
  maybe_async_drain t ~time;
  let len = Bytes.length data in
  Staging.begin_write t.core path ~off len;
  if len > 0 then begin
    let node = Staging.node t.core (node_of_rank t rank) in
    (* Make room first: capacity eviction drains the node's oldest dirty
       extents synchronously — the stall burst buffers hit when the
       compute phase outruns the drain. *)
    (match t.config.capacity_per_node with
    | Some cap when node.pending + len > cap ->
      Staging.evict t.core ~time ~node (fun () -> node.pending + len > cap)
    | _ -> ());
    Staging.append t.core ~time ~rank node path ~off data
  end

let fully_covered req ivs =
  List.for_all Interval.is_empty
    (List.fold_left
       (fun rest iv -> List.concat_map (fun r -> Interval.subtract r iv) rest)
       [ req ] ivs)

let hit t buf =
  Staging.count t.hits 1;
  buf

(* A read overlays the node's log (dirty and clean cached extents, in
   staging order) on the stage-in snapshot or, failing that, on the PFS's
   answer under its own semantics: read-your-writes for everything the
   node staged. *)
let read t ~time ~rank path ~off ~len =
  maybe_async_drain t ~time;
  let size = Staging.file_size t.core path in
  let n = max 0 (min len (max 0 (size - off))) in
  let node = Staging.node t.core (node_of_rank t rank) in
  let overlay = ref [] in
  Staging.iter_file t.core path (fun r ->
      if r.node = node.id && r.state <> Dropped then overlay := r :: !overlay);
  let overlay = List.rev !overlay in
  let extent r = Interval.of_len r.Staging.off (Bytes.length r.data) in
  let data =
    if n = 0 || fully_covered (Interval.of_len off n) (List.map extent overlay)
    then hit t (Bytes.make n '\000')
    else
      match Hashtbl.find_opt t.snapshots (node.id, path) with
      | Some snap when off + n <= Bytes.length snap -> hit t (Bytes.sub snap off n)
      | _ ->
        let base = Staging.pfs_read t.core ~time ~rank path ~off ~len:n in
        let buf = Bytes.make n '\000' in
        Bytes.blit base.Fdata.data 0 buf 0 (Bytes.length base.Fdata.data);
        Staging.count t.misses 1;
        buf
  in
  List.iter (Staging.paint ~off data) overlay;
  Staging.finish_read t.core path ~off data

let truncate t ~time path len =
  Pfs.truncate (pfs t) ~time path len;
  truncate_staged t path len

let create ?(config = default_config) pfs =
  let core =
    Staging.create ~label:"Tier" ~prefix:"bb" ~track:Obs.T_bb
      ~staged:"staged_bytes" ~fault:"drain" ~drain_event:"async-drain"
      ~stall_event:"stall" ~stall_histogram:true ~gate_drains:true
      ~ranks_per_node:config.ranks_per_node ~retry:config.retry pfs
  in
  let t =
    {
      core;
      config;
      snapshots = Hashtbl.create 16;
      stage_in = Staging.counter "bb.stage_in_bytes";
      stage_out = Staging.counter "bb.stage_out_bytes";
      hits = Staging.counter "bb.cache_hits";
      misses = Staging.counter "bb.cache_misses";
      backend = Backend.of_pfs pfs;
    }
  in
  t.backend <-
    Staging.backend core ~open_file:(open_file t) ~close_file:(close_file t)
      ~read:(read t) ~write:(write t) ~fsync:(fsync t) ~truncate:(truncate t);
  t

(* The locked data surface. *)
let backend t = t.backend

let open_file t ~time ~rank ?(create = false) ?(trunc = false) path =
  t.backend.open_file ~time ~rank ~create ~trunc path

let close_file t = t.backend.close_file
let fsync t = t.backend.fsync
let write t = t.backend.write
let read t = t.backend.read
let truncate t = t.backend.truncate
let file_size t = t.backend.file_size

(* Staging and publication -------------------------------------------------- *)

let stage_in t ~time ~rank path =
  Staging.locked t.core @@ fun () ->
  let size = Pfs.file_size (pfs t) path in
  let r = Staging.pfs_read t.core ~time ~rank path ~off:0 ~len:size in
  Hashtbl.replace t.snapshots (node_of_rank t rank, path) r.Fdata.data;
  let n = Bytes.length r.Fdata.data in
  Staging.count t.stage_in n;
  n

let laminate t ~time path =
  Staging.locked t.core @@ fun () ->
  ignore (Staging.drain_file t.core ~time path);
  Pfs.laminate (pfs t) ~time path

let stage_out t ~time path =
  Staging.locked t.core @@ fun () ->
  let b = Staging.drain_file t.core ~time path in
  Staging.count t.stage_out b;
  Pfs.laminate (pfs t) ~time path

let drain_file t ?(time = max_int) path =
  Staging.locked t.core (fun () -> Staging.drain_file t.core ~time path)

let drain_all t ?(time = max_int) () =
  Staging.locked t.core (fun () -> Staging.drain_all t.core ~time)

(* A node crash loses the node's undrained (dirty) staged bytes: they exist
   only in its local buffer, so they never reach the PFS.  Clean (drained)
   cached extents and snapshots are mere caches — also gone, but no data is
   lost with them. *)
let crash_node t ~node:id ~time:_ =
  Staging.locked t.core @@ fun () ->
  let node = Staging.node t.core id in
  let lost =
    List.fold_left (fun acc r -> acc + Staging.discard t.core r) 0 node.log
  in
  node.log <- [];
  Hashtbl.filter_map_inplace
    (fun (n, _) snap -> if n = id then None else Some snap)
    t.snapshots;
  if lost > 0 then begin
    Staging.count (Staging.counters t.core).crash_lost lost;
    Obs.gauge "bb.backlog" (occupancy t)
  end;
  lost

(* Statistics --------------------------------------------------------------- *)
type stats = {
  writes : int;
  reads : int;
  bytes_written : int;
  bytes_read : int;
  staged_bytes : int;
  drained_bytes : int;
  stage_in_bytes : int;
  stage_out_bytes : int;
  cache_hits : int;
  cache_misses : int;
  drain_stalls : int;
  stalled_bytes : int;
  peak_occupancy : int;
  stale_reads : int;
  stale_bytes : int;
  drain_faults : int;
  drain_retries : int;
  drain_backoff_ticks : int;
  drain_aborts : int;
  drain_target_down : int;
  crash_lost_bytes : int;
}

let stats t =
  let c = Staging.counters t.core in
  {
    writes = c.writes.n;
    reads = c.reads.n;
    bytes_written = c.bytes_written.n;
    bytes_read = c.bytes_read.n;
    staged_bytes = c.staged.n;
    drained_bytes = c.drained.n;
    stage_in_bytes = t.stage_in.n;
    stage_out_bytes = t.stage_out.n;
    cache_hits = t.hits.n;
    cache_misses = t.misses.n;
    drain_stalls = c.stalls.n;
    stalled_bytes = c.stalled_bytes.n;
    peak_occupancy = c.peak;
    stale_reads = c.stale_reads;
    stale_bytes = c.stale_bytes;
    drain_faults = c.faults.n;
    drain_retries = c.retries.n;
    drain_backoff_ticks = c.backoff_ticks.n;
    drain_aborts = c.aborts.n;
    drain_target_down = c.target_down.n;
    crash_lost_bytes = c.crash_lost.n;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>writes: %d (%d B)  reads: %d (%d B)@,\
     staged: %d B  drained: %d B  backlog never drained: %d B@,\
     stage-in: %d B  stage-out: %d B@,\
     cache hits/misses: %d/%d  drain stalls: %d (%d B)  peak occupancy: %d B@,\
     stale reads: %d (%d B)"
    s.writes s.bytes_written s.reads s.bytes_read s.staged_bytes
    s.drained_bytes
    (s.staged_bytes - s.drained_bytes)
    s.stage_in_bytes s.stage_out_bytes s.cache_hits s.cache_misses
    s.drain_stalls s.stalled_bytes s.peak_occupancy s.stale_reads
    s.stale_bytes;
  (* Fault counters appear only when faults were injected, so fault-free
     output is byte-identical with the injector absent. *)
  if
    s.drain_faults > 0 || s.drain_retries > 0 || s.drain_aborts > 0
    || s.crash_lost_bytes > 0
  then
    Format.fprintf ppf
      "@,drain faults: %d (%d retries, %d backoff ticks, %d aborts)  crash \
       lost: %d B"
      s.drain_faults s.drain_retries s.drain_backoff_ticks s.drain_aborts
      s.crash_lost_bytes;
  if s.drain_target_down > 0 then
    Format.fprintf ppf "@,drains refused by down target: %d"
      s.drain_target_down;
  Format.fprintf ppf "@]"
