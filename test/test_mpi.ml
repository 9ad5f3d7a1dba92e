(* The simulated MPI layer as the analysis sees it: the event log is
   sorted only when forced, every (src, dst, tag) channel is FIFO under
   both schedulers, and pinned digests of whole runs lock the schedule —
   a change to channels or scheduler steps must not move a single tick. *)

module Sched = Hpcfs_sim.Sched
module Psched = Hpcfs_sim.Psched
module Mpi = Hpcfs_mpi.Mpi
module Runner = Hpcfs_apps.Runner
module Registry = Hpcfs_apps.Registry
module Record = Hpcfs_trace.Record
module Report = Hpcfs_core.Report
module Happens_before = Hpcfs_core.Happens_before
module Plan = Hpcfs_fault.Plan

let app_body label =
  match Registry.find label with
  | Some e -> e.Registry.body
  | None -> Alcotest.failf "no catalogue entry %s" label

(* Pin a run to the legacy scheduler whatever HPCFS_DOMAINS says ("" is
   ignored by the Runner parser; putenv cannot unset). *)
let with_legacy_sched f =
  let saved = Sys.getenv_opt "HPCFS_DOMAINS" in
  Unix.putenv "HPCFS_DOMAINS" "";
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "HPCFS_DOMAINS" (Option.value saved ~default:""))
    f

let event_time = function
  | Mpi.E_send { time; _ } | Mpi.E_recv { time; _ } -> time
  | Mpi.E_barrier { enter; _ } | Mpi.E_coll { enter; _ } -> enter

let rec strictly_increasing = function
  | a :: (b :: _ as rest) ->
    event_time a < event_time b && strictly_increasing rest
  | [ _ ] | [] -> true

(* Lazy event log ---------------------------------------------------------- *)

let test_lazy_log () =
  let nprocs = 8 in
  let result = Runner.run ~nprocs (app_body "FLASH-fbs") in
  Alcotest.(check bool) "log not sorted by the run" false
    (Lazy.is_val result.Runner.events);
  let events = Lazy.force result.Runner.events in
  Alcotest.(check bool) "log non-empty" true (events <> []);
  Alcotest.(check bool) "log sorted by event time" true
    (strictly_increasing events);
  let report = Report.analyze ~nprocs result.Runner.records in
  let hb = Happens_before.build ~nprocs events in
  Alcotest.(check bool) "conflicts ordered by the forced log" true
    (Happens_before.race_free hb report.Report.session_conflicts)

(* A faulted run concatenates its attempts' logs; the restart continues
   the clock past the crash, so the whole log stays sorted. *)
let test_lazy_log_faulted () =
  let plan =
    Plan.make ~seed:9 [ Plan.crash ~rank:1 ~restart_delay:8 (Plan.At_io 5) ]
  in
  let result =
    Runner.run ~faults:plan ~nprocs:8 (app_body "HACC-IO-POSIX")
  in
  Alcotest.(check bool) "log not sorted by the run" false
    (Lazy.is_val result.Runner.events);
  let events = Lazy.force result.Runner.events in
  let barriers_of_rank0 =
    List.filter
      (function Mpi.E_barrier { rank = 0; _ } -> true | _ -> false)
      events
  in
  Alcotest.(check bool) "both attempts logged" true
    (List.length barriers_of_rank0 > 2);
  Alcotest.(check bool) "attempts in clock order" true
    (strictly_increasing events)

(* Channel semantics: QCheck against a reference model -------------------- *)

(* A program is a sequence of phases.  In a [P2p] phase every rank first
   makes its sends, in list order, then receives its incoming messages in
   an order drawn from [perm] — tags and sources interleave differently
   on the two sides.  Sends are buffered, so each phase completes and the
   program cannot deadlock.  An [Allgather] phase runs the collective,
   whose internal tag then alternates with the point-to-point tags on
   every channel, the way MPI-IO's exchange and collectives share
   channels. *)
type phase = P2p of { msgs : (int * int * int) list; perm : int } | Allgather

type prog = { nranks : int; phases : phase list }

let tag_pool = [| 1_000_001; -1; 7 |]

let prog_to_string p =
  let phase = function
    | Allgather -> "allgather"
    | P2p { msgs; perm } ->
      Printf.sprintf "p2p(perm=%d)[%s]" perm
        (String.concat " "
           (List.map
              (fun (s, d, t) -> Printf.sprintf "%d->%d#%d" s d t)
              msgs))
  in
  Printf.sprintf "%d ranks: %s" p.nranks
    (String.concat "; " (List.map phase p.phases))

let gen_prog =
  let open QCheck.Gen in
  let* nranks = int_range 2 6 in
  let* ntags = int_range 2 3 in
  let msg =
    triple (int_bound (nranks - 1)) (int_bound (nranks - 1))
      (map (fun i -> tag_pool.(i)) (int_bound (ntags - 1)))
  in
  let phase =
    frequency
      [
        ( 4,
          map2
            (fun msgs perm -> P2p { msgs; perm })
            (list_size (int_range 1 12) msg)
            nat );
        (1, return Allgather);
      ]
  in
  let+ phases = list_size (int_range 1 6) phase in
  { nranks; phases }

let arb_prog = QCheck.make ~print:prog_to_string gen_prog

(* What each rank does, precomputed so every scheduler runs the same
   program: sends carry a program-unique id. *)
type op =
  | Send of { dst : int; tag : int; id : int }
  | Recv of { src : int; tag : int }
  | Coll of int  (* phase index *)

let shuffle ~seed l =
  let st = Random.State.make [| seed |] in
  List.map (fun x -> (Random.State.bits st, x)) l
  |> List.sort compare |> List.map snd

let rank_ops p =
  let ops = Array.make p.nranks [] in
  let next_id = ref 0 in
  List.iteri
    (fun k phase ->
      match phase with
      | Allgather -> Array.iteri (fun r l -> ops.(r) <- Coll k :: l) ops
      | P2p { msgs; perm } ->
        List.iter
          (fun (src, dst, tag) ->
            ops.(src) <- Send { dst; tag; id = !next_id } :: ops.(src);
            incr next_id)
          msgs;
        for r = 0 to p.nranks - 1 do
          let incoming =
            List.filter_map
              (fun (src, dst, tag) ->
                if dst = r then Some (Recv { src; tag }) else None)
              msgs
          in
          ops.(r) <- List.rev_append (shuffle ~seed:(perm + r) incoming) ops.(r)
        done)
    p.phases;
  Array.map List.rev ops

(* Run [p] and return, per rank, what it received: [(src, tag, id)] for a
   message, [(-1, -1, v)] per allgathered value (rank r contributes
   [100 * phase + r]).  Rank bodies only record; every check runs after
   the scheduler returns. *)
let execute ~run p =
  let ops = rank_ops p in
  let got = Array.make p.nranks [] in
  let comm = Mpi.world () in
  Mpi.prepare comm ~nprocs:p.nranks;
  run ~nprocs:p.nranks (fun r ->
      List.iter
        (fun op ->
          match op with
          | Send { dst; tag; id } -> Mpi.send comm ~dst ~tag (Mpi.P_int id)
          | Recv { src; tag } ->
            let id =
              match Mpi.recv comm ~src ~tag with Mpi.P_int v -> v | _ -> -2
            in
            got.(r) <- (src, tag, id) :: got.(r)
          | Coll k ->
            Array.iter
              (fun v ->
                let v = match v with Mpi.P_int v -> v | _ -> -2 in
                got.(r) <- (-1, -1, v) :: got.(r))
              (Mpi.allgather comm (Mpi.P_int ((k * 100) + r))))
        ops.(r));
  Array.map List.rev got

(* The reference model: one FIFO queue per (src, dst, tag), filled in
   each source's program order; the k-th receive on a channel must
   return the k-th message sent on it. *)
let expected p =
  let ops = rank_ops p in
  let chans = Hashtbl.create 16 in
  let chan k =
    match Hashtbl.find_opt chans k with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.add chans k q;
      q
  in
  Array.iteri
    (fun src l ->
      List.iter
        (function
          | Send { dst; tag; id } -> Queue.push id (chan (src, dst, tag))
          | Recv _ | Coll _ -> ())
        l)
    ops;
  Array.mapi
    (fun dst l ->
      List.concat_map
        (function
          | Send _ -> []
          | Recv { src; tag } -> [ (src, tag, Queue.pop (chan (src, dst, tag))) ]
          | Coll k -> List.init p.nranks (fun r -> (-1, -1, (k * 100) + r)))
        l)
    ops

let schedulers =
  [
    ("Sched", fun ~nprocs body -> Sched.run ~nprocs body);
    ("Psched domains=1", fun ~nprocs body -> Psched.run ~domains:1 ~nprocs body);
    ("Psched domains=2", fun ~nprocs body -> Psched.run ~domains:2 ~nprocs body);
  ]

let qcheck_channels_fifo =
  QCheck.Test.make ~name:"every channel is FIFO under Sched and Psched"
    ~count:60 arb_prog (fun p ->
      let want = expected p in
      List.for_all
        (fun (name, run) ->
          execute ~run p = want
          || QCheck.Test.fail_reportf "%s diverged from the reference model"
               name)
        schedulers)

(* Golden digests ------------------------------------------------------------ *)

let event_line = function
  | Mpi.E_send { src; dst; tag; time } ->
    Printf.sprintf "send %d %d %d %d" src dst tag time
  | Mpi.E_recv { src; dst; tag; time } ->
    Printf.sprintf "recv %d %d %d %d" src dst tag time
  | Mpi.E_barrier { rank; gen; enter; exit } ->
    Printf.sprintf "barrier %d %d %d %d" rank gen enter exit
  | Mpi.E_coll { rank; name; seq; enter; exit } ->
    Printf.sprintf "coll %d %s %d %d %d" rank name seq enter exit

let run_digest ?domains label =
  let result = Runner.run ~nprocs:8 ?domains (app_body label) in
  let b = Buffer.create 65536 in
  List.iter
    (fun r ->
      Buffer.add_string b (Record.to_line r);
      Buffer.add_char b '\n')
    result.Runner.records;
  List.iter
    (fun e ->
      Buffer.add_string b (event_line e);
      Buffer.add_char b '\n')
    (Lazy.force result.Runner.events);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Digests of the trace lines plus the forced event log of 8-rank runs
   (default seed, strong semantics), taken before the channel table and
   the scheduler's step loop were last reworked.  The legacy and the
   parallel scheduler number ticks differently, so each has its own;
   the parallel one holds for every domain count. *)
let golden =
  [
    ( "FLASH-fbs",
      "f5909b70e6928bf8de75543f87013884",
      "c4586969adc7430fea7f38b481eff2a1" );
    ( "LAMMPS-ADIOS",
      "b8feb46a3b1b3c36ce9d0ac42d0590aa",
      "b56cbb8fc147ec61544e5dae839ff118" );
    ( "NWChem",
      "d4c0b45bca4edab8f7e2634fb71e13f6",
      "8f908afb75210ca7ee3dc075f91da1bc" );
  ]

let test_golden (label, legacy, parallel) () =
  Alcotest.(check string)
    (label ^ " under Sched") legacy
    (with_legacy_sched (fun () -> run_digest label));
  List.iter
    (fun d ->
      Alcotest.(check string)
        (Printf.sprintf "%s under Psched domains=%d" label d)
        parallel
        (run_digest ~domains:d label))
    [ 1; 2 ]

let suite =
  [
    Alcotest.test_case "event log sorted only when forced" `Quick
      test_lazy_log;
    Alcotest.test_case "faulted event log sorted only when forced" `Quick
      test_lazy_log_faulted;
    QCheck_alcotest.to_alcotest qcheck_channels_fifo;
  ]
  @ List.map
      (fun ((label, _, _) as g) ->
        Alcotest.test_case ("golden digest " ^ label) `Quick (test_golden g))
      golden
