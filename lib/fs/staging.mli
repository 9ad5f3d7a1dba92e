(** The write-back staging core under the burst-buffer tier (lib/bb) and
    the write-ahead log (lib/wal): a write is {e staged} on the writing
    rank's node and later {e drained} into the {!Pfs.t} with its original
    issue time and rank, so the PFS's engine still governs publication.
    Each tier is a policy deciding when to drain, how reads compose and
    what a crash destroys.

    A staged write is one {!record}, shared by its node's log, its file's
    queue and the global backlog.  No drain moves past a blocked record
    (refused by a down target or by the fault hook) of the same file, and
    truncation clips every live record, staged or applied. *)

type state =
  | Staged  (** On the node, not yet in the PFS. *)
  | Applied  (** Drained; the PFS holds the bytes. *)
  | Dropped  (** Truncated or invalidated away: ignored everywhere. *)
  | Lost  (** The node copy died in a crash before it became durable. *)
  | Torn  (** The in-flight append at a crash, discarded whole. *)

type record = {
  seq : int;  (** Global staging order. *)
  file : string;
  node : int;
  rank : int;
  time : int;  (** Original issue timestamp, replayed on drain. *)
  off : int;
  mutable data : bytes;
  mutable state : state;
  mutable recover : bool;
      (** Survived a failure; its next drain counts as recovered. *)
}

type node = {
  id : int;
  mutable pending : int;  (** Staged bytes. *)
  mutable log : record list;  (** Newest first. *)
}

type counter = { name : string; mutable n : int }
(** A statistic mirrored into the telemetry counter [name]. *)

val counter : string -> counter
val count : counter -> int -> unit

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
  mutable peak : int;  (** High-water mark of staged bytes. *)
  mutable stale_reads : int;
  mutable stale_bytes : int;
}
(** Named once, at {!create}. *)

type t

val create :
  label:string ->
  prefix:string ->
  track:Hpcfs_obs.Obs.track ->
  staged:string ->
  fault:string ->
  drain_event:string ->
  stall_event:string ->
  stall_histogram:bool ->
  gate_drains:bool ->
  ranks_per_node:int ->
  retry:Hpcfs_util.Backoff.policy ->
  Pfs.t ->
  t
(** A tier's core.  [label] names the module in errors (["Tier"]);
    counters are named [<prefix>.writes], ..., [<prefix>.<staged>] and
    [<prefix>.<fault>_faults], ...; drain and stall events land on
    [track]; [stall_histogram] also observes [<prefix>.stall_bytes].
    With [gate_drains] the fault hook gates every drain; otherwise the
    policy asks {!admitted} itself. *)

val pfs : t -> Pfs.t
val counters : t -> counters
val occupancy : t -> int

val node_of_rank : t -> int -> int
(** Negative synthetic ranks keep their identity. *)

val node : t -> int -> node
val iter_file : t -> string -> (record -> unit) -> unit
(** The file's records in staging order, but for the dropped ones
    {!truncate} and {!invalidate} compacted away. *)

val iter_files : t -> (string -> record Queue.t -> unit) -> unit
(** Every live record of each file, in staging order. *)

val bytes_in : t -> string -> state -> int
(** Bytes of the file's records in that state. *)

val recovered_bytes : t -> string -> int
val file_size : t -> string -> int
(** Size including staged bytes. *)

val locked : t -> (unit -> 'a) -> 'a
(** The tier's lock during a domain-parallel run, a plain call otherwise. *)

val backend :
  t ->
  open_file:(time:int -> rank:int -> create:bool -> trunc:bool -> string -> int) ->
  close_file:(time:int -> rank:int -> string -> unit) ->
  read:(time:int -> rank:int -> string -> off:int -> len:int -> Fdata.read_result) ->
  write:(time:int -> rank:int -> string -> off:int -> bytes -> unit) ->
  fsync:(time:int -> rank:int -> string -> unit) ->
  truncate:(time:int -> string -> int -> unit) ->
  Backend.t
(** A policy's data surface, each operation under {!locked}. *)

(** {1 Staging} *)

val begin_write : t -> string -> off:int -> int -> unit
(** Count a write of that length; a non-empty one raises
    [Invalid_argument] on a laminated file and grows the staged size. *)

val append : t -> time:int -> rank:int -> node -> string -> off:int -> bytes -> unit
(** Stage a copy of the bytes on the node. *)

val discard : t -> record -> int
(** Drop a record; returns the staged bytes it held. *)

val invalidate : t -> node -> string -> unit
(** A cache invalidation: the node drops its clean records of the file. *)

val truncate : t -> string -> int -> unit
(** Clip every live record of the file to the new length. *)

(** {1 Draining} *)

val set_fault :
  t -> ?prng:Hpcfs_util.Prng.t -> (node:int -> time:int -> bool) option -> unit

val admitted : t -> node:int -> time:int -> bool
(** Ask the fault hook, retrying under the capped backoff (accounted, not
    slept); [false] once the retry budget is spent. *)

val drain_one : t -> time:int -> record -> int
(** Replay a staged record; the bytes applied, 0 if it stays staged. *)

val drain_file : t -> ?node:int -> ?upto:int -> time:int -> string -> int
(** Drain a file's staged records in staging order — only [node]'s, and
    only up to the first one issued after [upto] — stopping at the first
    blocked one. *)

val drain_all : t -> time:int -> int
(** Drain the backlog; a file that blocks stays staged from there on. *)

val paced_drain : t -> time:int -> bandwidth:int -> interval:int -> unit
(** Every [interval] ticks, drain up to [bandwidth] bytes per elapsed
    tick from the backlog head, whole records only, stopping if it
    blocks. *)

val evict : t -> time:int -> ?node:node -> (unit -> bool) -> unit
(** While the predicate holds, drain [node]'s oldest records (skipping
    files that block) or else the backlog head (stopping if it blocks);
    accounted as one stall. *)

val stall : t -> int -> unit
(** Account a synchronous drain of that many bytes. *)

val requeue : t -> unit
(** Rebuild backlog and occupancy after records were reverted to
    [Staged]. *)

(** {1 Reads} *)

val pfs_read : t -> time:int -> rank:int -> string -> off:int -> len:int -> Fdata.read_result
(** Reads zeroes rather than fail on a down target. *)

val paint : off:int -> bytes -> record -> unit
(** Overlay the record on a buffer that starts at [off]. *)

val finish_read : t -> string -> off:int -> bytes -> Fdata.read_result
(** Count a read returning these bytes; its staleness is measured against
    the PFS oracle plus every staged record. *)

(** {1 Publication rules, shared with {!Journal}} *)

type marks

val marks : unit -> marks
val note_commit : marks -> rank:int -> path:string -> time:int -> unit

val note_close : marks -> rank:int -> path:string -> time:int -> unit
(** A close also commits. *)

val settled :
  marks -> Consistency.t -> rank:int -> path:string -> issued:int -> time:int -> bool
(** Is a write issued at [issued] durable at [time]?  The client side of
    {!Fdata.persisted}: strong on arrival, commit/session once the writer
    commits/closes strictly after it, eventual once the delay elapsed. *)

val laminated : Pfs.t -> string -> bool
val touches_target : Pfs.t -> off:int -> len:int -> target:int -> bool
(** Does the extent have a stripe chunk on storage target [target]? *)
