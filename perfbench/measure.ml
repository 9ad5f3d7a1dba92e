(* Timing, statistics and the per-layer probe.

   A probe accumulates the per-layer numbers of one traced iteration:
   wall time spent inside calls into a layer, GC deltas around a phase,
   and plain counts.  The inactive probe ([off]) makes every wrapper the
   bare call, so the untraced and traced runs execute the same code. *)

let now = Unix.gettimeofday

let median xs =
  match List.sort compare xs with
  | [] -> invalid_arg "Measure.median: empty"
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let maximum xs = List.fold_left max neg_infinity xs

type probe = { on : bool; values : (string, float) Hashtbl.t }

let off = { on = false; values = Hashtbl.create 1 }
let probe () = { on = true; values = Hashtbl.create 64 }

let get p name = Option.value ~default:0. (Hashtbl.find_opt p.values name)

let add p name v = if p.on then Hashtbl.replace p.values name (get p name +. v)

let count p name n = add p name (float_of_int n)

(* Wall seconds inside [f], added to [name]. *)
let time p name f =
  if not p.on then f ()
  else begin
    let t0 = now () in
    let v = f () in
    add p name (now () -. t0);
    v
  end

(* Measurement-only work inside a traced iteration: run [f] and leave its
   wall time out of the iteration's ([untimed_s]). *)
let untimed p f = if p.on then time p "measure.untimed_s" f

let untimed_s p = get p "measure.untimed_s"

(* [time] plus the major-heap words and major collections of [f], added to
   gc.<phase>.major_words and gc.<phase>.major_collections. *)
let phase p ~gc name f =
  if not p.on then f ()
  else begin
    let s0 = Gc.quick_stat () in
    let v = time p name f in
    let s1 = Gc.quick_stat () in
    add p
      ("gc." ^ gc ^ ".major_words")
      (s1.Gc.major_words -. s0.Gc.major_words);
    count p
      ("gc." ^ gc ^ ".major_collections")
      (s1.Gc.major_collections - s0.Gc.major_collections);
    v
  end

(* Wall seconds and allocation of [f]: (minor + major - promoted) words and
   major words.  The runtime folds a domain's allocation into these
   statistics at minor collections, so [f] starts on an empty heap and the
   minor heap is flushed after it; on one domain both counts then repeat
   exactly. *)
let measured f =
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let t0 = now () in
  let v = f () in
  let wall = now () -. t0 in
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  let major = s1.Gc.major_words -. s0.Gc.major_words in
  let total =
    s1.Gc.minor_words -. s0.Gc.minor_words +. major
    -. (s1.Gc.promoted_words -. s0.Gc.promoted_words)
  in
  (v, wall, total, major)

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1e6
