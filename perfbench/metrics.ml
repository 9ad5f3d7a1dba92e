(* Every metric the benchmark prints, with its unit.  BENCHMARK.json names
   the same lists, with the direction and bound of each; test_run.py holds
   the two in step. *)

type decl = { name : string; unit : string }

let d name unit = { name; unit }

(* Printed with --trace 0, measured with telemetry off.  The failed-job
   ratio is the result's own [failed] / [attempted] pair. *)
let end_to_end =
  [
    d "setup_s" "s";
    d "wall_s" "s";
    d "records_per_s" "1/s";
    d "peak_heap_mb" "MB";
    d "alloc_words_per_record" "words";
    d "major_words_per_record" "words";
  ]

let gc_phases = [ "sim"; "encode"; "analyze"; "validate"; "stream"; "staged" ]

(* Printed with --trace 1.  A metric a workload does not exercise reads 0.
   Names under [modelled.] are outputs of the simulation's cost model,
   not measurements of this code. *)
let per_layer =
  [
    d "sim.run_s" "s";
    d "sim.self_s" "s";
    d "sim.steps" "count";
    d "sim.rounds" "count";
    d "posix.call_s" "s";
    d "posix.open_us" "us";
    d "posix.write_us" "us";
    d "posix.close_us" "us";
    d "posix.calls" "count";
    d "fs.opens" "count";
    d "fs.bytes_written" "B";
    d "md.ops" "count";
    d "md.cache.hit_ratio" "ratio";
    d "fs.lock.acquisitions" "count";
    d "fs.lock.hit_ratio" "ratio";
    d "fs.lock.revocations" "count";
    d "fs.extent.fast_read_ratio" "ratio";
    d "fs.stale_bytes" "B";
    d "trace.encode_s" "s";
    d "trace.bytes_per_record" "B";
    d "trace.decode_s" "s";
    d "trace.decode_records_per_s" "1/s";
    d "trace.records.posix" "count";
    d "trace.records.mpiio" "count";
    d "trace.records.hdf5" "count";
    d "core.resolve_s" "s";
    d "core.overlap_s" "s";
    d "core.sharing_s" "s";
    d "core.patterns_s" "s";
    d "core.conflicts_s" "s";
    d "core.metadata_s" "s";
    d "core.recommend_s" "s";
    d "core.accesses" "count";
    d "core.overlap_pairs" "count";
    d "core.stream.feed_s" "s";
    d "core.stream.finish_s" "s";
    d "core.stream.bytes_per_access" "B";
    d "core.stream.accesses" "count";
    d "apps.validate_s" "s";
    d "apps.digest_s" "s";
    d "apps.job_p50_ms" "ms";
    d "apps.job_max_ms" "ms";
    d "apps.eventual8_correct" "count";
    d "bb.overhead_s" "s";
    d "wal.overhead_s" "s";
    d "bb.staged_bytes" "B";
    d "bb.drained_bytes" "B";
    d "bb.drain_ratio" "ratio";
    d "bb.stalls" "count";
    d "bb.drain_retries" "count";
    d "wal.appended_bytes" "B";
    d "wal.drained_bytes" "B";
    d "wal.stalls" "count";
    d "wal.writethrough" "count";
    d "wal.recovered_bytes" "B";
    d "wal.lost_bytes" "B";
    d "wal.torn_bytes" "B";
    d "wal.check_s" "s";
    d "fault.crash_report_s" "s";
    d "fault.crashes" "count";
    d "fault.restarts" "count";
  ]
  @ List.concat_map
      (fun p ->
        [
          d ("gc." ^ p ^ ".major_words") "words";
          d ("gc." ^ p ^ ".major_collections") "count";
        ])
      gc_phases
  @ [
      d "obs.overhead_ratio" "ratio";
      d "unattributed_s" "s";
      d "modelled.mpi.barrier_wait_ticks" "ticks";
    ]

let valid_name s =
  s <> ""
  && String.length s <= 64
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

type result = {
  attempted : int;
  failed : int;
  correct : bool;
  values : (decl * float) list;
}

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "Metrics.json_float: not finite"

(* The one-line result object the benchmark ends its output with. *)
let to_json r =
  let metric (m, v) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_float v)
      m.unit
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric r.values))
