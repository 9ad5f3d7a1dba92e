module Interval = Hpcfs_util.Interval
module Backoff = Hpcfs_util.Backoff
module Prng = Hpcfs_util.Prng
module Obs = Hpcfs_obs.Obs

type state = Staged | Applied | Dropped | Lost | Torn

type record = {
  seq : int;
  file : string;
  node : int;
  rank : int;
  time : int;
  off : int;
  mutable data : bytes;
  mutable state : state;
  mutable recover : bool;
}

type node = {
  id : int;
  mutable pending : int;
  mutable log : record list;
}

type counter = { name : string; mutable n : int }

let counter name = { name; n = 0 }

let count c by =
  c.n <- c.n + by;
  if Obs.enabled () then Obs.incr ~by c.name

type counters = {
  writes : counter;
  reads : counter;
  bytes_written : counter;
  bytes_read : counter;
  staged : counter;
  drained : counter;
  stalls : counter;
  stalled_bytes : counter;
  faults : counter;
  retries : counter;
  backoff_ticks : counter;
  aborts : counter;
  target_down : counter;
  crash_lost : counter;
  recovered : counter;
  mutable peak : int;
  mutable stale_reads : int;
  mutable stale_bytes : int;
}

type t = {
  pfs : Pfs.t;
  track : Obs.track;
  drain_event : string;
  stall_event : string;
  gate_drains : bool;
  ranks_per_node : int;
  retry : Backoff.policy;
  nodes : (int, node) Hashtbl.t;
  backlog : record Queue.t; (* staging order, for paced and full drains *)
  (* Per file, in staging order: the staged records (plus those drained
     since the file's last per-file drain, which compacts the queue), and
     every live record (compacted when the file is truncated). *)
  to_drain : (string, record Queue.t) Hashtbl.t;
  live : (string, record Queue.t) Hashtbl.t;
  hw : (string, int) Hashtbl.t; (* staged size high-water per file *)
  recovered_per_file : (string, int) Hashtbl.t;
  mutable last_drain : int;
  mutable occupancy : int;
  mutable next_seq : int;
  mutable fault : (node:int -> time:int -> bool) option;
  mutable fault_prng : Prng.t;
  c : counters;
  (* Telemetry names, built once. *)
  backlog_gauge : string;
  evictions : counter;
  evicted : counter;
  stall_histogram : string option;
  laminated_msg : string;
  mu : Mutex.t;
}

let create ~label ~prefix ~track ~staged ~fault ~drain_event ~stall_event
    ~stall_histogram ~gate_drains ~ranks_per_node ~retry pfs =
  let name s = prefix ^ "." ^ s in
  let c s = counter (name s) in
  let fault s = c (fault ^ "_" ^ s) in
  {
    pfs;
    track;
    drain_event;
    stall_event;
    gate_drains;
    ranks_per_node;
    retry;
    nodes = Hashtbl.create 16;
    backlog = Queue.create ();
    to_drain = Hashtbl.create 16;
    live = Hashtbl.create 16;
    hw = Hashtbl.create 16;
    recovered_per_file = Hashtbl.create 16;
    last_drain = 0;
    occupancy = 0;
    next_seq = 0;
    fault = None;
    fault_prng = Prng.create 0;
    c =
      {
        writes = c "writes";
        reads = c "reads";
        bytes_written = c "bytes_written";
        bytes_read = c "bytes_read";
        staged = c staged;
        drained = c "drained_bytes";
        stalls = c "stalls";
        stalled_bytes = c "stalled_bytes";
        faults = fault "faults";
        retries = fault "retries";
        backoff_ticks = fault "backoff_ticks";
        aborts = fault "aborts";
        target_down = c "drain_target_down";
        crash_lost = c "crash_lost_bytes";
        recovered = c "recovered_bytes";
        peak = 0;
        stale_reads = 0;
        stale_bytes = 0;
      };
    backlog_gauge = name "backlog";
    evictions = c "evictions";
    evicted = c "evicted_bytes";
    stall_histogram =
      (if stall_histogram then Some (name "stall_bytes") else None);
    laminated_msg = label ^ ".write: file is laminated";
    mu = Mutex.create ();
  }

let pfs t = t.pfs
let counters t = t.c
let occupancy t = t.occupancy
let node_of_rank t rank = if rank < 0 then rank else rank / max 1 t.ranks_per_node

let node t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n -> n
  | None ->
    let n = { id; pending = 0; log = [] } in
    Hashtbl.add t.nodes id n;
    n

let queue tbl path =
  match Hashtbl.find_opt tbl path with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.add tbl path q;
    q

let filter_queue keep q =
  let kept = Queue.create () in
  Queue.iter (fun r -> if keep r then Queue.add r kept) q;
  Queue.clear q;
  Queue.transfer kept q

let iter_staged t path f =
  Option.iter (Queue.iter f) (Hashtbl.find_opt t.to_drain path)

let iter_file t path f =
  Option.iter (Queue.iter f) (Hashtbl.find_opt t.live path)

let iter_files t f = Hashtbl.iter f t.live

let bytes_in t path state =
  let n = ref 0 in
  iter_file t path (fun r -> if r.state = state then n := !n + Bytes.length r.data);
  !n

let recovered_bytes t path =
  Option.value ~default:0 (Hashtbl.find_opt t.recovered_per_file path)

(* Staged bytes enter or leave a node. *)
let adjust t node bytes =
  node.pending <- node.pending + bytes;
  t.occupancy <- t.occupancy + bytes

let hw_size t path = Option.value ~default:0 (Hashtbl.find_opt t.hw path)
let file_size t path = max (Pfs.file_size t.pfs path) (hw_size t path)

(* Concurrency: node logs, queues and counters are shared by every rank,
   so a domain-parallel run serializes the whole data surface on one
   coarse lock (staging traffic is not what the parallel scheduler
   targets).  The lock nests above the per-file Fdata locks — a tier
   operation may take an Fdata lock via the PFS, never the reverse.
   Legacy runs take a branch, not the lock. *)
let locked t f =
  if Hpcfs_util.Domctx.parallel () then begin
    Mutex.lock t.mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f
  end
  else f ()

let backend t ~open_file ~close_file ~read ~write ~fsync ~truncate =
  {
    Backend.pfs = t.pfs;
    open_file =
      (fun ~time ~rank ~create ~trunc path ->
        locked t (fun () -> open_file ~time ~rank ~create ~trunc path));
    close_file =
      (fun ~time ~rank path -> locked t (fun () -> close_file ~time ~rank path));
    read =
      (fun ~time ~rank path ~off ~len ->
        locked t (fun () -> read ~time ~rank path ~off ~len));
    write =
      (fun ~time ~rank path ~off data ->
        locked t (fun () -> write ~time ~rank path ~off data));
    fsync = (fun ~time ~rank path -> locked t (fun () -> fsync ~time ~rank path));
    truncate = (fun ~time path len -> locked t (fun () -> truncate ~time path len));
    file_size = (fun path -> locked t (fun () -> file_size t path));
  }

(* Publication rules ------------------------------------------------------- *)

type marks = {
  commits : (int * string, int) Hashtbl.t;
  closes : (int * string, int) Hashtbl.t;
}

let marks () = { commits = Hashtbl.create 64; closes = Hashtbl.create 64 }

let watermark tbl ~rank ~path =
  match Hashtbl.find_opt tbl (rank, path) with Some w -> w | None -> min_int

let bump tbl ~rank ~path time =
  if time > watermark tbl ~rank ~path then Hashtbl.replace tbl (rank, path) time

let note_commit m ~rank ~path ~time = bump m.commits ~rank ~path time

let note_close m ~rank ~path ~time =
  bump m.closes ~rank ~path time;
  (* A close also commits (cf. {!Fdata.session_close}). *)
  bump m.commits ~rank ~path time

let settled m semantics ~rank ~path ~issued ~time =
  match semantics with
  | Consistency.Strong -> issued < time
  | Consistency.Commit -> watermark m.commits ~rank ~path > issued
  | Consistency.Session -> watermark m.closes ~rank ~path > issued
  | Consistency.Eventual { delay } -> issued + delay <= time

let laminated pfs path =
  let ns = Pfs.namespace pfs in
  Namespace.exists ns path && Fdata.is_laminated (Namespace.lookup_file ns path)

let touches_target pfs ~off ~len ~target =
  List.exists
    (fun (srv, _) -> srv = target)
    (Stripe.split_extent (Pfs.stripe pfs) (Interval.of_len off len))

(* Staging ----------------------------------------------------------------- *)

let begin_write t path ~off len =
  count t.c.writes 1;
  count t.c.bytes_written len;
  if len > 0 then begin
    if laminated t.pfs path then invalid_arg t.laminated_msg;
    Hashtbl.replace t.hw path (max (hw_size t path) (off + len))
  end

let append t ~time ~rank node path ~off data =
  let len = Bytes.length data in
  let r =
    {
      seq = t.next_seq;
      file = path;
      node = node.id;
      rank;
      time;
      off;
      data = Bytes.copy data;
      state = Staged;
      recover = false;
    }
  in
  t.next_seq <- t.next_seq + 1;
  node.log <- r :: node.log;
  Queue.add r t.backlog;
  Queue.add r (queue t.to_drain path);
  Queue.add r (queue t.live path);
  adjust t node len;
  count t.c.staged len;
  Obs.gauge t.backlog_gauge t.occupancy;
  if t.occupancy > t.c.peak then t.c.peak <- t.occupancy

let discard t r =
  let held = if r.state = Staged then Bytes.length r.data else 0 in
  if held > 0 then adjust t (node t r.node) (-held);
  r.state <- Dropped;
  r.data <- Bytes.empty;
  held

let compact t path =
  Option.iter
    (filter_queue (fun r -> r.state <> Dropped))
    (Hashtbl.find_opt t.live path)

let invalidate t node path =
  let keep r =
    r.file <> path || r.state = Staged || (ignore (discard t r); false)
  in
  node.log <- List.filter keep node.log;
  compact t path

let truncate t path len =
  iter_file t path (fun r ->
      match r.state with
      | Staged | Applied ->
        let l = Bytes.length r.data in
        if r.off >= len then ignore (discard t r)
        else if r.off + l > len then begin
          if r.state = Staged then adjust t (node t r.node) (len - r.off - l);
          r.data <- Bytes.sub r.data 0 (len - r.off)
        end
      | Dropped | Lost | Torn -> ());
  compact t path;
  Hashtbl.replace t.hw path (min (hw_size t path) len)

(* Draining ---------------------------------------------------------------- *)

let set_fault t ?prng hook =
  t.fault <- hook;
  Option.iter (fun p -> t.fault_prng <- p) prng

let admitted t ~node ~time =
  match t.fault with
  | None -> true
  | Some fails ->
    let rec attempt n =
      if not (fails ~node ~time) then true
      else begin
        count t.c.faults 1;
        if n >= t.retry.Backoff.max_retries then begin
          count t.c.aborts 1;
          false
        end
        else begin
          let delay = Backoff.delay t.retry t.fault_prng ~attempt:n in
          count t.c.retries 1;
          count t.c.backoff_ticks delay;
          attempt (n + 1)
        end
      end
    in
    attempt 0

(* Replaying a record with its original issue timestamp and rank gives the
   backing file exactly the write history a direct run would have built;
   only the arrival moment differs. *)
let drain_one t ~time r =
  match r.state with
  | Applied | Dropped | Lost | Torn -> 0
  | Staged when t.gate_drains && not (admitted t ~node:r.node ~time) -> 0
  | Staged -> (
    match Pfs.write t.pfs ~time:r.time ~rank:r.rank r.file ~off:r.off r.data with
    | exception Target.Target_down _ ->
      (* Not a transient fault the backoff can ride out: the record stays
         staged — the node copy is the only one — for a pass after
         recovery or failover. *)
      count t.c.target_down 1;
      0
    | () ->
      r.state <- Applied;
      let len = Bytes.length r.data in
      adjust t (node t r.node) (-len);
      count t.c.drained len;
      if r.recover then begin
        r.recover <- false;
        Hashtbl.replace t.recovered_per_file r.file
          (recovered_bytes t r.file + len);
        count t.c.recovered len
      end;
      Obs.gauge t.backlog_gauge t.occupancy;
      len)

let drain_file t ?node ?upto ~time path =
  let drained = ref 0 in
  (try
     iter_staged t path (fun r ->
         if r.state = Staged then
           match (node, upto) with
           | Some n, _ when r.node <> n -> ()
           | _, Some u when r.time > u -> raise Exit
           | _ ->
             drained := !drained + drain_one t ~time r;
             if r.state = Staged then raise Exit)
   with Exit -> ());
  Option.iter
    (filter_queue (fun r -> r.state = Staged))
    (Hashtbl.find_opt t.to_drain path);
  !drained

(* Drain from the backlog head while [go] allows, stopping at a blocked
   head so staging order is kept.  Whole records only. *)
let drain_head t ~time go =
  let total = ref 0 in
  let continue_ = ref true in
  while !continue_ && not (Queue.is_empty t.backlog) do
    let r = Queue.peek t.backlog in
    if r.state <> Staged then ignore (Queue.pop t.backlog)
    else if not (go !total) then continue_ := false
    else begin
      let len = drain_one t ~time r in
      if r.state = Staged then continue_ := false
      else begin
        ignore (Queue.pop t.backlog);
        total := !total + len
      end
    end
  done;
  !total

(* Drain the records [iter] yields while [go] holds, skipping every file
   from its first blocked record on. *)
let drain_skipping t ~time go iter =
  let blocked = ref [] and total = ref 0 in
  iter (fun r ->
      if r.state = Staged && go () && not (List.mem r.file !blocked) then begin
        total := !total + drain_one t ~time r;
        if r.state = Staged then blocked := r.file :: !blocked
      end);
  !total

let drain_all t ~time =
  let total = drain_skipping t ~time (fun () -> true) (fun f -> Queue.iter f t.backlog) in
  let staged = Queue.create () in
  Queue.iter (fun r -> if r.state = Staged then Queue.add r staged) t.backlog;
  Queue.clear t.backlog;
  Queue.transfer staged t.backlog;
  total

let event t name bytes =
  Obs.event t.track ~args:[ ("bytes", string_of_int bytes) ] name

let stall t bytes =
  if bytes > 0 then begin
    count t.c.stalls 1;
    count t.c.stalled_bytes bytes;
    Option.iter (fun h -> Obs.observe h (float_of_int bytes)) t.stall_histogram;
    event t t.stall_event bytes
  end

let paced_drain t ~time ~bandwidth ~interval =
  if time - t.last_drain >= interval then begin
    let budget = bandwidth * (time - t.last_drain) in
    t.last_drain <- max t.last_drain time;
    let drained = drain_head t ~time (fun total -> total < budget) in
    if drained > 0 then event t t.drain_event drained
  end

let evict t ~time ?node over =
  let forced =
    match node with
    | None -> drain_head t ~time (fun _ -> over ())
    | Some n -> drain_skipping t ~time over (fun f -> List.iter f (List.rev n.log))
  in
  if forced > 0 then begin
    count t.evictions 1;
    count t.evicted forced
  end;
  stall t forced

let requeue t =
  Queue.clear t.backlog;
  Hashtbl.reset t.to_drain;
  Hashtbl.iter (fun _ n -> n.pending <- 0) t.nodes;
  t.occupancy <- 0;
  let staged =
    Hashtbl.fold
      (fun _ q acc ->
        Queue.fold (fun acc r -> if r.state = Staged then r :: acc else acc) acc q)
      t.live []
  in
  List.iter
    (fun r ->
      adjust t (node t r.node) (Bytes.length r.data);
      Queue.add r t.backlog;
      Queue.add r (queue t.to_drain r.file))
    (List.sort (fun a b -> compare a.seq b.seq) staged);
  Obs.gauge t.backlog_gauge t.occupancy

(* Reads ------------------------------------------------------------------- *)

let pfs_read t ~time ~rank path ~off ~len =
  try Pfs.read t.pfs ~time ~rank path ~off ~len
  with Target.Target_down _ -> Pfs.read_degraded t.pfs ~time ~rank path ~off ~len

let paint ~off buf r =
  let lo = max off r.off in
  let hi = min (off + Bytes.length buf) (r.off + Bytes.length r.data) in
  if lo < hi then Bytes.blit r.data (lo - r.off) buf (lo - off) (hi - lo)

(* What a strongly consistent stack would return: the PFS oracle plus
   every still-staged record of the file, in staging order. *)
let ground_truth t path ~off ~len =
  let buf = Bytes.make len '\000' in
  let oracle = Pfs.read_oracle t.pfs path ~off ~len in
  Bytes.blit oracle 0 buf 0 (Bytes.length oracle);
  iter_staged t path (fun r -> if r.state = Staged then paint ~off buf r);
  buf

let finish_read t path ~off data =
  let n = Bytes.length data in
  let truth = ground_truth t path ~off ~len:n in
  let stale = ref 0 in
  for i = 0 to n - 1 do
    if Bytes.get data i <> Bytes.get truth i then incr stale
  done;
  count t.c.reads 1;
  count t.c.bytes_read n;
  if !stale > 0 then begin
    t.c.stale_reads <- t.c.stale_reads + 1;
    t.c.stale_bytes <- t.c.stale_bytes + !stale
  end;
  { Fdata.data; stale_bytes = !stale }
