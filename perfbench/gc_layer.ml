(* The OCaml runtime as a layer: allocation and collection counters from
   [Gc], and stop-the-world pause times from the compiler-bundled
   [Runtime_events] ring of this process. *)

type counters = {
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

let counters () =
  let s = Gc.quick_stat () in
  {
    minor_words = Gc.minor_words ();
    promoted_words = s.Gc.promoted_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
  }

let zero = { minor_words = 0.0; promoted_words = 0.0; minor_collections = 0; major_collections = 0 }

let add a b =
  {
    minor_words = a.minor_words +. b.minor_words;
    promoted_words = a.promoted_words +. b.promoted_words;
    minor_collections = a.minor_collections + b.minor_collections;
    major_collections = a.major_collections + b.major_collections;
  }

let diff ~later ~earlier =
  {
    minor_words = later.minor_words -. earlier.minor_words;
    promoted_words = later.promoted_words -. earlier.promoted_words;
    minor_collections = later.minor_collections - earlier.minor_collections;
    major_collections = later.major_collections - earlier.major_collections;
  }

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* --- Pauses ------------------------------------------------------------------

   A pause is an interval in which this domain is inside a minor collection
   or a major slice; nested phases are folded into the outermost one.  The
   ring is read between passes and every few hundred operations within one,
   so it never wraps; events it did drop are counted. *)

type pauses = {
  mutable total_ns : int;
  mutable max_ns : int;
  mutable count : int;
  mutable depth : int;
  mutable began : int;
  mutable lost : int;
}

let pauses = { total_ns = 0; max_ns = 0; count = 0; depth = 0; began = 0; lost = 0 }
let cursor = ref None

let is_pause = function
  | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE | Runtime_events.EV_MAJOR ->
    true
  | _ -> false

let callbacks =
  let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t) in
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun _ t phase ->
      if is_pause phase then begin
        if pauses.depth = 0 then pauses.began <- ts t;
        pauses.depth <- pauses.depth + 1
      end)
    ~runtime_end:(fun _ t phase ->
      if is_pause phase && pauses.depth > 0 then begin
        pauses.depth <- pauses.depth - 1;
        if pauses.depth = 0 then begin
          let d = ts t - pauses.began in
          pauses.total_ns <- pauses.total_ns + d;
          pauses.max_ns <- max pauses.max_ns d;
          pauses.count <- pauses.count + 1
        end
      end)
    ~lost_events:(fun _ n -> pauses.lost <- pauses.lost + n)
    ()

let start_events () =
  if Option.is_none !cursor then begin
    Runtime_events.start ();
    Runtime_events.pause ();
    cursor := Some (Runtime_events.create_cursor None)
  end

let poll () =
  match !cursor with
  | Some c -> ignore (Runtime_events.read_poll c callbacks None : int)
  | None -> ()

let reset_pauses () =
  pauses.total_ns <- 0;
  pauses.max_ns <- 0;
  pauses.count <- 0;
  pauses.depth <- 0;
  pauses.lost <- 0

(* Record pauses from now on; events already in the ring belong to an
   unrecorded phase and are read and dropped. *)
let arm () =
  match !cursor with
  | Some c ->
    Runtime_events.resume ();
    ignore (Runtime_events.read_poll c Runtime_events.Callbacks.(create ()) None : int)
  | None -> ()

let disarm () =
  poll ();
  if Option.is_some !cursor then Runtime_events.pause ()

let metrics (d : counters) =
  [
    Metric.count "gc.minor_collections" d.minor_collections;
    Metric.count "gc.major_collections" d.major_collections;
    Metric.v "gc.promoted_words" "words" d.promoted_words;
    Metric.v "gc.pause_ms_total" "ms" (float_of_int pauses.total_ns *. 1e-6);
    Metric.v "gc.pause_ms_max" "ms" (float_of_int pauses.max_ns *. 1e-6);
    Metric.count "gc.pauses" pauses.count;
    Metric.count "gc.events_lost" pauses.lost;
  ]
