(** Capped exponential backoff with jitter, shared by every retry loop in
    the simulator (burst-buffer drains, write-ahead log appends, PFS
    client retries against a down storage target).  Delays are logical ticks; callers account them
    rather than advancing the clock, so retrying never perturbs the
    simulated schedule. *)

type policy = {
  max_retries : int;
      (** Failed attempts tolerated before the operation is given up on
          (parked, degraded, or surfaced to the caller). *)
  base_delay : int;  (** Backoff of the first retry, in logical ticks. *)
  max_delay : int;  (** Per-retry backoff cap, in logical ticks. *)
  jitter : float;
      (** Random extra fraction of the backoff, drawn uniformly from
          [\[0, jitter)] — the decorrelation that keeps a fleet of clients
          from retrying in lockstep. *)
}

val default : policy
(** 4 retries, 8-tick base, 256-tick cap, 50% jitter. *)

val delay : policy -> Prng.t -> attempt:int -> int
(** [delay policy prng ~attempt] is the deterministic (per PRNG state)
    backoff before retry number [attempt] (0-based):
    [min max_delay (base_delay * 2^attempt)] plus jitter. *)
