module Record = Hpcfs_trace.Record

(* Process IDs grouping the tracks in the Perfetto UI: all rank tracks live
   under one "ranks" process, each subsystem gets its own. *)
let pid_of_track = function
  | Obs.T_rank _ -> 0
  | Obs.T_fs -> 1
  | Obs.T_bb -> 2
  | Obs.T_sched -> 3
  | Obs.T_mpi -> 4
  | Obs.T_core -> 5
  | Obs.T_wal -> 6

let tid_of_track = function Obs.T_rank r -> r | _ -> 0

let process_names =
  [ (0, "ranks"); (1, "FS"); (2, "BB"); (3, "sched"); (4, "MPI");
    (5, "analysis"); (6, "WAL") ]

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let args_json args =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%S:\"%s\"" k (escape v)) args)
  ^ "}"

type emitter = { buf : Buffer.t; mutable first : bool }

let emit e line =
  if e.first then e.first <- false else Buffer.add_string e.buf ",\n";
  Buffer.add_string e.buf line

let emit_meta e ~pid ~tid ~name ~value =
  emit e
    (Printf.sprintf
       "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":%S,\"args\":{\"name\":\"%s\"}}"
       pid tid name (escape value))

let emit_complete e ~pid ~tid ~ts ~dur ~name args =
  emit e
    (Printf.sprintf
       "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%d,\"dur\":%d,\"name\":\"%s\",\"args\":%s}"
       pid tid ts dur (escape name) (args_json args))

let emit_instant e ~pid ~tid ~ts ~name args =
  emit e
    (Printf.sprintf
       "{\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%d,\"ts\":%d,\"name\":\"%s\",\"args\":%s}"
       pid tid ts (escape name) (args_json args))

let emit_counter e ~pid ~ts ~name ~value =
  emit e
    (Printf.sprintf
       "{\"ph\":\"C\",\"pid\":%d,\"tid\":0,\"ts\":%d,\"name\":\"%s\",\"args\":{\"value\":%d}}"
       pid ts (escape name) value)

let record_args r =
  List.concat
    [
      [ ("layer", Record.layer_name r.Record.layer) ];
      (match r.Record.file with Some f -> [ ("file", f) ] | None -> []);
      (match r.Record.offset with
      | Some o -> [ ("offset", string_of_int o) ]
      | None -> []);
      (match r.Record.count with
      | Some c -> [ ("count", string_of_int c) ]
      | None -> []);
    ]

(* Gauge counter tracks are attached to the subsystem whose name prefixes
   the metric ("bb.backlog" plots under the BB process). *)
let pid_of_metric name =
  if String.length name >= 3 && String.sub name 0 3 = "bb." then 2
  else if String.length name >= 4 && String.sub name 0 4 = "wal." then 6
  else if String.length name >= 3 && String.sub name 0 3 = "fs." then 1
  else if String.length name >= 4 && String.sub name 0 4 = "mpi." then 4
  else if String.length name >= 4 && String.sub name 0 4 = "sim." then 3
  else 5

let render ?(records = []) sink =
  let e = { buf = Buffer.create 65536; first = true } in
  Buffer.add_string e.buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  List.iter
    (fun (pid, name) -> emit_meta e ~pid ~tid:0 ~name:"process_name" ~value:name)
    process_names;
  let ranks =
    List.sort_uniq compare (List.map (fun r -> r.Record.rank) records)
  in
  List.iter
    (fun r ->
      emit_meta e ~pid:0 ~tid:r ~name:"thread_name"
        ~value:(Printf.sprintf "rank %d" r))
    ranks;
  List.iter
    (fun r ->
      emit_complete e ~pid:0 ~tid:r.Record.rank ~ts:r.Record.time ~dur:1
        ~name:r.Record.func (record_args r))
    records;
  List.iter
    (fun (sp : Obs.span) ->
      let wall_us = (sp.Obs.sp_w1 -. sp.Obs.sp_w0) *. 1e6 in
      emit_complete e
        ~pid:(pid_of_track sp.Obs.sp_track)
        ~tid:(tid_of_track sp.Obs.sp_track)
        ~ts:sp.Obs.sp_t0
        ~dur:(max 1 (sp.Obs.sp_t1 - sp.Obs.sp_t0))
        ~name:sp.Obs.sp_name
        (sp.Obs.sp_args @ [ ("wall_us", Printf.sprintf "%.1f" wall_us) ]))
    (Obs.spans sink);
  List.iter
    (fun (ev : Obs.instant) ->
      emit_instant e
        ~pid:(pid_of_track ev.Obs.ev_track)
        ~tid:(tid_of_track ev.Obs.ev_track)
        ~ts:ev.Obs.ev_t ~name:ev.Obs.ev_name ev.Obs.ev_args)
    (Obs.instants sink);
  List.iter
    (fun (name, m) ->
      match m with
      | Obs.Gauge { series; _ } ->
        List.iter
          (fun (ts, v) ->
            emit_counter e ~pid:(pid_of_metric name) ~ts ~name ~value:v)
          series
      | Obs.Counter _ | Obs.Histogram _ -> ())
    (Obs.metrics sink);
  Buffer.add_string e.buf "\n]}\n";
  Buffer.contents e.buf

let save ~path ?records sink =
  let oc = open_out path in
  output_string oc (render ?records sink);
  close_out oc
