(* Domain-parallel superstep scheduler.

   Ranks are sharded contiguously across OCaml domains (rank r belongs to
   shard r*domains/nprocs); each domain drives its ranks with the same
   effect handler the legacy scheduler uses.  Execution alternates
   between two phases:

   - superstep (parallel): every woken rank runs one slice — until it
     yields, blocks on a predicate, or finishes — on its own domain.
     Within the superstep each rank draws tick values from a private
     arithmetic progression (below), so no clock state is shared.
   - boundary (single-threaded, on the spawning domain): deferred
     accounting registered via {!Hpcfs_util.Domctx} is flushed, the
     clock bases merge, fault hooks fire in rank order, and every
     waiting predicate is evaluated against the now-frozen state to
     decide the next superstep's wake set.

   Clock merge.  The i-th tick of rank r inside a superstep with base B
   is [B + i*nprocs + r + 1]: globally unique (distinct residues mod
   nprocs within a superstep, disjoint ranges across supersteps), and —
   the point — independent of how ranks map to domains, so
   [domains=1] and [domains=8] assign byte-identical timestamps.  The
   boundary advances B by [nprocs * max_i] where max_i is the largest
   per-rank tick count of the superstep, merged rank-ordered across
   shards.

   Determinism contract.  Timestamps, trace records and every
   happens-before-respecting observable are identical across domain
   counts for workloads whose cross-rank data dependencies flow through
   scheduler synchronization (barriers, send/recv, wait_until) — the
   structure of every workload in lib/wl and of the paper's applications.
   Ranks that race on the same state *within* one superstep (no
   synchronization between them) are memory-safe (the fs layers lock),
   and the write-log canonicalization at the boundary restores a
   deterministic order for the *next* superstep's readers, but what a
   racing same-superstep read returns is schedule-dependent — exactly as
   it is on a real parallel file system. *)

module Obs = Hpcfs_obs.Obs
module Domctx = Hpcfs_util.Domctx
open Effect.Deep

type proc =
  | PFresh of (unit -> unit)
  | PRunnable of (unit, unit) Effect.Deep.continuation
  | PWaiting of (unit -> bool) * (unit, unit) Effect.Deep.continuation
  | PDone

type shard = {
  sh_id : int;
  sh_lo : int;
  sh_hi : int;  (* ranks [sh_lo, sh_hi) *)
  mutable sh_steps : int;  (* slices executed, cumulative *)
  mutable sh_exn : (int * exn) option;  (* lowest-rank exception, this superstep *)
}

type pstate = {
  p_nprocs : int;
  procs : proc array;
  wake : bool array;
  seq : int array;  (* ticks drawn this superstep, per rank *)
  last : int array;  (* last tick value issued, per rank *)
  mutable base : int;
  shards : shard array;
}

(* The rank a domain is currently executing; -1 in scheduler/boundary
   context.  One global key: runs are serialized by the reentrancy
   guard, and worker domains die with their run. *)
let cur_rank : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)

let tick_of st ~rank =
  let i = st.seq.(rank) in
  st.seq.(rank) <- i + 1;
  let v = st.base + (i * st.p_nprocs) + rank + 1 in
  st.last.(rank) <- v;
  v

let install_alt st =
  Sched.set_alt
    (Some
       {
         Sched.alt_self =
           (fun () ->
             let r = Domain.DLS.get cur_rank in
             if r >= 0 then r
             else invalid_arg "Sched.self: no rank executing (Psched boundary)");
         alt_nprocs = (fun () -> st.p_nprocs);
         alt_tick =
           (fun () ->
             let r = Domain.DLS.get cur_rank in
             if r >= 0 then tick_of st ~rank:r
             else
               failwith
                 "Sched.tick: tick outside rank context during a parallel run");
         alt_now =
           (fun () ->
             let r = Domain.DLS.get cur_rank in
             if r >= 0 then st.last.(r) else st.base);
       })

(* The deep handler a rank's fiber runs under, installed once when the
   rank starts (see [Sched.step]). *)
let handler st r =
  {
    retc = (fun () -> st.procs.(r) <- PDone);
    exnc = (fun e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Sched.Yield ->
          Some
            (fun (k : (a, unit) Effect.Deep.continuation) ->
              st.procs.(r) <- PRunnable k)
        | Sched.Wait pred ->
          Some
            (fun (k : (a, unit) Effect.Deep.continuation) ->
              st.procs.(r) <- PWaiting (pred, k))
        | _ -> None);
  }

(* One slice of rank [r]: run until it suspends or finishes.  Exceptions
   (a fault injector killing the rank, an app bug) park the rank as
   [PDone] and are re-raised from the boundary, lowest rank first, after
   the whole superstep completes — so the surviving state is independent
   of domain count. *)
let run_slice st sh r ~debug =
  Domain.DLS.set cur_rank r;
  sh.sh_steps <- sh.sh_steps + 1;
  Obs.incr "sim.steps";
  (try
     match st.procs.(r) with
     | PFresh body -> match_with body () (handler st r)
     | PRunnable k -> continue k ()
     | PWaiting (pred, k) ->
       (* The boundary saw the predicate true; under HPCFS_SCHED_DEBUG,
          verify nothing un-made it since (a racing rank mutating the
          watched state would break the monotonicity contract). *)
       if debug && not (pred ()) then Sched.nonmonotone_failure "Psched" r;
       continue k ()
     | PDone -> ()
   with e ->
     st.procs.(r) <- PDone;
     (match sh.sh_exn with
     | Some (r0, _) when r0 <= r -> ()
     | _ -> sh.sh_exn <- Some (r, e)));
  Domain.DLS.set cur_rank (-1)

let run_shard st sh ~debug =
  Domctx.set_slot sh.sh_id;
  for r = sh.sh_lo to sh.sh_hi - 1 do
    st.seq.(r) <- 0
  done;
  for r = sh.sh_lo to sh.sh_hi - 1 do
    if st.wake.(r) then begin
      st.wake.(r) <- false;
      run_slice st sh r ~debug
    end
  done

(* Worker coordination: a phase counter the main domain bumps to start a
   superstep, and a countdown it waits on.  Blocking (Mutex/Condition),
   not spinning — oversubscribed hosts (domains > cores) must not melt. *)
type ctl = {
  mu : Mutex.t;
  cv : Condition.t;
  mutable phase : int;
  mutable left : int;  (* shards still executing the current phase *)
  mutable stop : bool;
}

let worker ctl st sh ~debug =
  Domctx.set_slot sh.sh_id;
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock ctl.mu;
    while ctl.phase = !seen && not ctl.stop do
      Condition.wait ctl.cv ctl.mu
    done;
    if ctl.stop then Mutex.unlock ctl.mu
    else begin
      seen := ctl.phase;
      Mutex.unlock ctl.mu;
      run_shard st sh ~debug;
      Mutex.lock ctl.mu;
      ctl.left <- ctl.left - 1;
      if ctl.left = 0 then Condition.broadcast ctl.cv;
      Mutex.unlock ctl.mu;
      loop ()
    end
  in
  loop ()

let exn_of_superstep st =
  Array.fold_left
    (fun acc sh ->
      match (acc, sh.sh_exn) with
      | None, e | e, None -> e
      | Some (r0, _), Some (r1, _) -> if r1 < r0 then sh.sh_exn else acc)
    None st.shards

let run ?(clock = 0) ?before_step ?(domains = 1) ~nprocs body =
  if nprocs <= 0 then invalid_arg "Psched.run: nprocs must be positive";
  if domains <= 0 then invalid_arg "Psched.run: domains must be positive";
  if Sched.running () then
    failwith
      "Psched.run: a simulation is already running (the scheduler is not \
       reentrant; finish or fail the active run first)";
  let domains = min domains (min nprocs Domctx.max_slots) in
  let st =
    {
      p_nprocs = nprocs;
      procs = Array.init nprocs (fun r -> PFresh (fun () -> body r));
      wake = Array.make nprocs true;
      seq = Array.make nprocs 0;
      last = Array.make nprocs clock;
      base = clock;
      shards =
        Array.init domains (fun k ->
            {
              sh_id = k;
              sh_lo = k * nprocs / domains;
              sh_hi = (k + 1) * nprocs / domains;
              sh_steps = 0;
              sh_exn = None;
            });
    }
  in
  let debug = Sched.debug_checks () in
  Domctx.reset_boundary ();
  Domctx.next_run_epoch ();
  Domctx.set_superstep 0;
  install_alt st;
  Obs.set_logical_clock (fun () ->
      let r = Domain.DLS.get cur_rank in
      if r >= 0 then st.last.(r) else st.base);
  Domctx.set_parallel true;
  let ctl =
    { mu = Mutex.create (); cv = Condition.create (); phase = 0; left = 0;
      stop = false }
  in
  let workers =
    Array.init (domains - 1) (fun i ->
        let sh = st.shards.(i + 1) in
        Domain.spawn (fun () -> worker ctl st sh ~debug))
  in
  let stop_workers () =
    Mutex.lock ctl.mu;
    ctl.stop <- true;
    Condition.broadcast ctl.cv;
    Mutex.unlock ctl.mu;
    Array.iter Domain.join workers
  in
  let finish () =
    stop_workers ();
    (* Flush deferred boundary work first: crash reconciliation and final
       statistics must see the canonical state. *)
    Domctx.run_boundary ();
    Domctx.set_parallel false;
    Domctx.set_superstep 0;
    Sched.set_alt None;
    Obs.clear_logical_clock ();
    Obs.par_flush ();
    if Obs.enabled () then begin
      let steps = Array.map (fun sh -> sh.sh_steps) st.shards in
      Array.iteri
        (fun k n -> Obs.incr ~by:n (Printf.sprintf "sim.shard.steps.%d" k))
        steps;
      let mx = Array.fold_left max 0 steps
      and mn = Array.fold_left min max_int steps in
      if mn > 0 then
        Obs.gauge "sim.shard.imbalance_x1000" (mx * 1000 / mn)
    end
  in
  let all_done () =
    Array.for_all (function PDone -> true | _ -> false) st.procs
  in
  (* The boundary between supersteps.  Returns the woken-rank count for
     the next superstep; raises on deferred rank exceptions, fault-hook
     kills, or deadlock. *)
  let boundary () =
    Domctx.run_boundary ();
    (match exn_of_superstep st with
    | Some (_, e) -> raise e
    | None -> ());
    let max_i = Array.fold_left max 0 st.seq in
    st.base <- st.base + (st.p_nprocs * max_i);
    Array.fill st.seq 0 nprocs 0;
    Domctx.set_superstep (Domctx.superstep () + 1);
    (match before_step with
    | None -> ()
    | Some hook ->
      for r = 0 to nprocs - 1 do
        match st.procs.(r) with
        | PDone -> ()
        | PFresh _ | PRunnable _ | PWaiting _ -> hook r
      done);
    let woken = ref 0 in
    for r = 0 to nprocs - 1 do
      let w =
        match st.procs.(r) with
        | PFresh _ | PRunnable _ -> true
        | PWaiting (pred, _) -> pred ()
        | PDone -> false
      in
      st.wake.(r) <- w;
      if w then incr woken
    done;
    if !woken = 0 && not (all_done ()) then begin
      let blocked =
        Array.to_list st.procs
        |> List.mapi (fun r p ->
               match p with PWaiting _ -> Some r | _ -> None)
        |> List.filter_map Fun.id
        |> List.map string_of_int
        |> String.concat ","
      in
      raise (Sched.Deadlock (Printf.sprintf "ranks blocked: %s" blocked))
    end;
    !woken
  in
  let superstep () =
    Obs.incr "sim.supersteps";
    Mutex.lock ctl.mu;
    ctl.phase <- ctl.phase + 1;
    ctl.left <- domains - 1;
    Condition.broadcast ctl.cv;
    Mutex.unlock ctl.mu;
    run_shard st st.shards.(0) ~debug;
    Mutex.lock ctl.mu;
    while ctl.left > 0 do
      Condition.wait ctl.cv ctl.mu
    done;
    Mutex.unlock ctl.mu
  in
  let rec loop () =
    let woken = boundary () in
    if woken > 0 then begin
      superstep ();
      loop ()
    end
  in
  match loop () with
  | () -> finish ()
  | exception e ->
    finish ();
    raise e

let shard_bounds ~nprocs ~domains =
  let domains = min domains (min nprocs Domctx.max_slots) in
  List.init domains (fun k ->
      (k * nprocs / domains, ((k + 1) * nprocs / domains) - 1))
