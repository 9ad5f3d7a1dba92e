(* analyze_stream: a synthetic binary trace streamed from disk through
   Tracefile.iter and the bounded-memory analyzer (Report.feed / finish).

   Decode, offset resolution, overlap and conflict accumulation do all the
   work and the simulator none, so a change to the codec or the analysis
   shows here and a change to the simulator must not. *)

module Record = Hpcfs_trace.Record
module Codec = Hpcfs_trace.Codec
module Tracefile = Hpcfs_trace.Tracefile
module Prng = Hpcfs_util.Prng
module Report = Hpcfs_core.Report

let nranks = 64

(* The per-rank checkpoint loop `bench trace` streams, with its choices
   drawn from the seed: each rank opens a private file and a shared
   header, then mixes writes, reads, seeks and metadata calls; every
   5000th record rewrites part of the header, the one cross-rank conflict
   source.  Records come out in order, one call at a time. *)
type generator = Prng.t

let generator seed = Prng.create seed
let period = 5_000
let block = 4096

let private_file rank = Printf.sprintf "/scratch/rank%03d.dat" rank
let header_file = "/scratch/header.dat"

let next g i =
  let rank = i mod nranks in
  let s = i / nranks in
  let r =
    Record.make ~time:(i + 1) ~rank ~layer:Record.L_posix ~origin:Record.O_app
  in
  if s = 0 then
    r ~func:"open" ~file:(private_file rank) ~fd:5
      ~args:[ ("flags", "O_CREAT|O_WRONLY") ] ()
  else if s = 1 then
    r ~func:"open" ~file:header_file ~fd:6 ~args:[ ("flags", "O_RDWR") ] ()
  else if i mod period = period - 1 then
    r ~func:"pwrite" ~fd:6 ~offset:(8 * Prng.int g 16) ~count:8 ()
  else
    match Prng.int g 8 with
    | 0 -> r ~func:"write" ~fd:5 ~count:block ()
    | 1 | 5 ->
      r ~func:"lseek" ~fd:5 ~offset:(s * block)
        ~args:[ ("whence", "SEEK_SET") ] ()
    | 2 -> r ~func:"stat" ~file:(private_file rank) ()
    | 3 -> r ~func:"access" ~file:(private_file rank) ()
    | 4 -> r ~func:"read" ~fd:5 ~count:block ()
    | 6 -> r ~func:"fstat" ~fd:5 ()
    | _ -> r ~func:"stat" ~file:header_file ()

let ok = function Ok v -> v | Error e -> failwith e

(* Set-up: generate the trace and encode it, never holding it whole. *)
let generate ~seed ~n path =
  let g = generator seed in
  let oc = open_out_bin path in
  let e = Codec.encoder oc in
  for i = 0 to n - 1 do
    Codec.encode e (next g i)
  done;
  Codec.finish e;
  close_out oc

(* Decoded records equal generated records, one by one; the analysis of
   the generated records is the reference every job is checked against. *)
let verify ~seed ~n path () =
  let g = generator seed in
  let s = Report.stream ~nprocs:nranks () in
  let i = ref 0 in
  let mismatches = ref 0 in
  let decoded =
    ok
      (Tracefile.iter path ~f:(fun r ->
           let expected = next g !i in
           if r <> expected then incr mismatches;
           Report.feed s expected;
           incr i))
  in
  let reference = Report.finish s in
  let failures =
    Common.failing
      [
        ("decoded every record", decoded = n);
        ("decoded records equal generated records", !mismatches = 0);
      ]
  in
  (reference, failures)

let iterate ~n ~path ~reference p =
  let b = Common.batch () in
  (* Count-only decode pass: the codec's share of the job. *)
  Measure.untimed p (fun () ->
      let decoded =
        Measure.time p "trace.decode_s" (fun () ->
            ok (Tracefile.fold path ~init:0 ~f:(fun acc _ -> acc + 1)))
      in
      assert (decoded = n));
  Common.job b "analyze_stream" (fun () ->
      let s = Report.stream ~nprocs:nranks () in
      let h0 = (Gc.quick_stat ()).Gc.heap_words in
      let consumed =
        Measure.phase p ~gc:"stream" "core.stream.iter_feed_s" (fun () ->
            ok (Tracefile.iter path ~f:(Report.feed s)))
      in
      let h1 = (Gc.quick_stat ()).Gc.heap_words in
      let summary =
        Measure.phase p ~gc:"stream" "core.stream.finish_s" (fun () ->
            Report.finish s)
      in
      if p.Measure.on then begin
        let accesses = summary.Report.access_count in
        let decode_s = Measure.get p "trace.decode_s" in
        Measure.add p "trace.decode_records_per_s" (float_of_int n /. decode_s);
        Measure.add p "core.stream.feed_s"
          (Measure.get p "core.stream.iter_feed_s" -. decode_s);
        Measure.count p "core.stream.accesses" accesses;
        Measure.add p "core.stream.bytes_per_access"
          (float_of_int ((h1 - h0) * 8) /. float_of_int (max 1 accesses))
      end;
      ( consumed,
        [
          ("consumed every record", consumed = n);
          ("summary equals the generated trace's", summary = reference);
        ],
        summary ));
  Common.finish b

let records = 500_000

let setup ~seed =
  let path =
    Common.scratch_file (Printf.sprintf "analyze_stream-%d.trace" seed)
  in
  generate ~seed ~n:records path;
  let reference = lazy (verify ~seed ~n:records path ()) in
  {
    Common.iterate =
      (fun p ->
        iterate ~n:records ~path ~reference:(fst (Lazy.force reference)) p);
    verify = (fun () -> snd (Lazy.force reference));
    cleanup = (fun () -> Common.remove_scratch path);
  }

let workload =
  {
    Common.name = "analyze_stream";
    self_times =
      [ "trace.decode_s"; "core.stream.feed_s"; "core.stream.finish_s" ];
    setup;
  }
