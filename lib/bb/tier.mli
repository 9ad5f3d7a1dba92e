(** The burst-buffer tier: a per-node write-back cache over the
    {!Hpcfs_fs.Staging} core.  A write lands in the writing node's buffer
    and drains into the backing {!Hpcfs_fs.Pfs.t} with its original issue
    time and rank when the {!Drain.t} policy says, so the PFS ends up as a
    direct run leaves it: the tier changes when data arrives and what
    in-flight reads observe.  A read overlays the reading node's buffer
    (read-your-writes) on a {!stage_in} snapshot or on the PFS's answer
    under its own semantics, and is served without the PFS when the
    node covers it.  Staleness is measured against the strong ground
    truth, so validation can compare tiered and direct runs.  Callers
    pass logical timestamps; metadata goes straight to the PFS. *)

type config = {
  ranks_per_node : int;  (** Ranks sharing one node-local buffer. *)
  policy : Drain.t;
  capacity_per_node : int option;
      (** Buffer bytes per node; staging beyond it forces a synchronous
          drain of the node's oldest extents (a stall).  [None] =
          unbounded. *)
  retry : Drain.retry;
      (** Backoff policy for transient drain failures (only exercised when
          a fault hook is installed via {!set_fault}). *)
}

val default_config : config
(** 4 ranks per node, {!Drain.Sync_on_close}, unbounded buffers,
    {!Drain.default_retry}. *)

type t

val create : ?config:config -> Hpcfs_fs.Pfs.t -> t
(** A tier staging onto [pfs].  The tier does not own the PFS: callers may
    keep reading it directly (e.g. for post-run validation). *)

val pfs : t -> Hpcfs_fs.Pfs.t
val config : t -> config

val node_of_rank : t -> int -> int
(** The node a rank's writes are staged on. *)

val backend : t -> Hpcfs_fs.Backend.t
(** The tier as a POSIX-layer backend: lib/posix routes through this
    record exactly as it would through a bare PFS. *)

(** {1 The PFS-shaped data surface} *)

val open_file :
  t -> time:int -> rank:int -> ?create:bool -> ?trunc:bool -> string -> int
(** Opens pass through to the PFS (sessions are recorded there).  Opening
    also invalidates the node's {e drained} cached extents and stage-in
    snapshot for the file — the close-to-open cache invalidation burst
    buffers perform — while undrained (dirty) extents are kept. *)

val close_file : t -> time:int -> rank:int -> string -> unit
(** Applies the drain policy for the closing node's staged extents of the
    file, then records the close on the PFS. *)

val read :
  t -> time:int -> rank:int -> string -> off:int -> len:int ->
  Hpcfs_fs.Fdata.read_result
(** The composite read described above.  [stale_bytes] counts bytes that
    differ from the strong ground truth. *)

val write : t -> time:int -> rank:int -> string -> off:int -> bytes -> unit
(** Stage into the node log.  Raises [Invalid_argument] if the file is
    laminated, like {!Hpcfs_fs.Fdata.write}. *)

val fsync : t -> time:int -> rank:int -> string -> unit
(** Under [Sync_on_close] and [Async], drains the node's staged extents
    for the file (fsync is a commit — the data must reach the PFS) and
    then commits on the PFS.  Under [On_laminate] only the PFS commit is
    recorded; staged data stays local. *)

val truncate : t -> time:int -> string -> int -> unit
val file_size : t -> string -> int
(** Size including staged-but-undrained extents. *)

(** {1 Staging and publication} *)

val stage_in : t -> time:int -> rank:int -> string -> int
(** Prefetch the file's PFS-visible contents (as seen by [rank] at
    [time]) into the rank's node read cache; returns the bytes staged.
    Subsequent in-range reads by the node are served locally.  Call it
    with the file open (session semantics otherwise show nothing). *)

val stage_out : t -> time:int -> string -> unit
(** Publish a completed output: drain every node's staged extents for the
    file, then laminate it on the PFS (globally visible, read-only) —
    the UnifyFS workflow for checkpoint outputs. *)

val laminate : t -> time:int -> string -> unit
(** Same draining and lamination as {!stage_out}, accounted as lamination
    rather than explicit stage-out. *)

val drain_file : t -> ?time:int -> string -> int
(** Force-drain one file's staged extents (all nodes, staging order) up
    to the first one whose drain fails; returns the bytes drained.  No
    stall is accounted.  [time] (default [max_int]) is only consulted by
    an installed fault hook. *)

val drain_all : t -> ?time:int -> unit -> int
(** Force-drain the whole backlog (e.g. at end of job); returns the bytes
    drained.  An extent whose drain failed past the retry budget stays
    staged, and so do its file's later extents. *)

(** {1 Fault injection} *)

val set_fault :
  t -> ?prng:Hpcfs_util.Prng.t -> (node:int -> time:int -> bool) option ->
  unit
(** Install (or clear) a transient drain-failure hook: every drain attempt
    asks the hook; [true] makes the attempt fail, retried under the
    configured {!Drain.retry} policy with backoff delays drawn from
    [prng].  With no hook installed the drain path is untouched. *)

val crash_node : t -> node:int -> time:int -> int
(** [crash_node t ~node ~time] loses the node's buffer to a crash: every
    undrained staged extent is dropped — those bytes never reach the PFS —
    and the node's clean caches are invalidated.  Returns the undrained
    bytes lost. *)

(** {1 Statistics} *)

type stats = {
  writes : int;
  reads : int;
  bytes_written : int;  (** Bytes the application wrote through the tier. *)
  bytes_read : int;
  staged_bytes : int;  (** Bytes that entered node logs. *)
  drained_bytes : int;  (** Bytes replayed into the backing PFS. *)
  stage_in_bytes : int;
  stage_out_bytes : int;  (** Bytes drained by stage-out/lamination. *)
  cache_hits : int;  (** Reads served without touching the PFS. *)
  cache_misses : int;  (** Reads that needed a PFS read underneath. *)
  drain_stalls : int;
      (** Operations that had to drain synchronously before completing
          (close/fsync flushes, capacity evictions). *)
  stalled_bytes : int;  (** Bytes drained inside stalls. *)
  peak_occupancy : int;
      (** High-water mark of undrained bytes across all nodes. *)
  stale_reads : int;  (** Reads returning at least one stale byte. *)
  stale_bytes : int;
  drain_faults : int;  (** Injected transient drain failures. *)
  drain_retries : int;  (** Retry attempts after failures. *)
  drain_backoff_ticks : int;  (** Total backoff delay accounted. *)
  drain_aborts : int;
      (** Drains abandoned after exhausting the retry budget. *)
  drain_target_down : int;
      (** Drain attempts refused because the backing storage target was
          down; the extent stays staged for a post-recovery pass. *)
  crash_lost_bytes : int;  (** Undrained bytes lost to node crashes. *)
}

val stats : t -> stats
val occupancy : t -> int
(** Current undrained bytes across all nodes. *)

val pp_stats : Format.formatter -> stats -> unit
