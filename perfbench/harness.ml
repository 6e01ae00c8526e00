(* One benchmark run: a discarded warm-up pass, then timed passes until the
   time budget is spent, then the correctness gate and the metrics.

   Every pass builds its inputs and systems afresh from the seed, session
   by session; the heap is compacted before each session's set-up and
   before its run, and set-up and run are timed apart.  An untraced run
   ([~traced:false]) measures host figures as medians over its untraced
   passes, and reads the simulated figures from one traced reference pass
   whose digest every untraced pass must reproduce.  A traced run
   alternates untraced and traced passes and measures the layers (medians
   over its traced passes) and the tracing overhead between the two.
   Host time is scaled by the [Reference] kernel, timed before each
   session of a measured untraced pass (never before the warm-up pass,
   whose heap high-water mark is [peak_heap_mb]).
   BENCHMARK.json decides which of these figures each mode prints. *)

type pass = {
  setup_s : float;
  run_s : float;
  gc : Gc_layer.counters;
  outcome : Workload.outcome;
  expected_ops : int;
  check : (unit, string) result;
  layers : Metric.t list;  (** Traced passes only. *)
  reference_s : float list;
      (** The [Reference] kernel, timed before each session when calibrating. *)
}

let pass ?(calibrate = false) (w : Workload.t) ~seed ~size ~traced =
  let inst = w.prepare ~seed ~size ~traced in
  let setup_s = ref 0.0 and run_s = ref 0.0 and gc = ref Gc_layer.zero in
  let reference_s = ref [] in
  Gc_layer.reset_pauses ();
  for i = 0 to inst.sessions - 1 do
    if calibrate then reference_s := Reference.time () :: !reference_s;
    Gc.compact ();
    let t0 = Span.now_s () in
    inst.setup i;
    setup_s := !setup_s +. (Span.now_s () -. t0);
    Gc.compact ();
    if traced then Gc_layer.arm ();
    let g0 = Gc_layer.counters () in
    let t1 = Span.now_s () in
    inst.run i;
    run_s := !run_s +. (Span.now_s () -. t1);
    gc := Gc_layer.add !gc (Gc_layer.diff ~later:(Gc_layer.counters ()) ~earlier:g0);
    if traced then Gc_layer.disarm ();
    inst.close i
  done;
  let r = inst.finish () in
  {
    setup_s = !setup_s;
    run_s = !run_s;
    gc = !gc;
    outcome = r.outcome;
    expected_ops = r.expected_ops;
    check = r.check;
    layers = (if traced then r.layers @ Gc_layer.metrics !gc @ r.setup_steps else []);
    reference_s = !reference_s;
  }

let ops_per_s p = float_of_int p.outcome.ops /. p.run_s
let per_op p x = x /. float_of_int p.outcome.ops
let median_of f passes = Samples.median (List.map f passes)

(* The metric-wise median over passes that report the same metrics. *)
let median_metrics = function
  | [] -> []
  | first :: _ as all ->
    List.map
      (fun (m : Metric.t) ->
        let vs =
          List.map
            (fun ms -> (Option.get (Metric.find m.name ms)).Metric.value)
            all
        in
        { m with value = Samples.median vs })
      first

(* --- The correctness gate --------------------------------------------------- *)

(* What pins.json holds for this workload, size and seed: nothing when the
   seed is not the pinned one, else the digest and values to reproduce. *)
type pinned = Unpinned | Missing | Pinned of string * (string * float) list

let gate ~passes ~reference ~pinned =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  List.iteri
    (fun i p ->
      if p.outcome.ops <> p.expected_ops then
        fail "pass %d attempted %d ops, the input has %d" i p.outcome.ops p.expected_ops;
      (match p.check with Error e -> fail "pass %d consistency check: %s" i e | Ok () -> ());
      if not (String.equal p.outcome.digest reference.outcome.digest) then
        fail "pass %d simulated something else than the traced pass (digest %s vs %s)" i
          p.outcome.digest reference.outcome.digest)
    passes;
  (match pinned with
  | Unpinned -> ()
  | Missing -> fail "this is the pinned seed, but no pin is recorded for the workload and size"
  | Pinned (digest, values) ->
    if not (String.equal digest reference.outcome.digest) then
      fail "digest %s differs from the pinned %s" reference.outcome.digest digest;
    List.iter
      (fun (name, v) ->
        match Metric.find name reference.outcome.values with
        | Some m when Float.equal m.value v -> ()
        | Some m -> fail "%s = %s, pinned %s" name (Metric.number_to_string m.value)
                      (Metric.number_to_string v)
        | None -> fail "%s is pinned but not reported" name)
      values);
  List.rev !errors

(* --- A run ---------------------------------------------------------------------- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : Metric.t list;
  errors : string list;
  reference_values : Metric.t list;  (** What a pin for this run records. *)
  reference_digest : string;
}

let run (w : Workload.t) ~seed ~size ~seconds ~traced ~pinned ~log =
  if traced then Gc_layer.start_events ();
  let warm = pass w ~seed ~size ~traced:false in
  (* Top of the heap over one pass from a fresh process: later passes only
     raise the high-water mark by the garbage of the ones before. *)
  let peak_heap_mb = Gc_layer.peak_heap_mb () in
  let started = Span.now_s () in
  let plain = ref [] and traced_passes = ref [] and reference_s = ref [] in
  let min_passes = if traced then 2 else 3 in
  while Span.now_s () -. started < seconds || List.length !plain < min_passes do
    let p = pass ~calibrate:true w ~seed ~size ~traced:false in
    reference_s := p.reference_s @ !reference_s;
    log (Printf.sprintf "untraced pass: setup %.3f s, run %.3f s, %.0f ops/s" p.setup_s p.run_s
           (ops_per_s p));
    plain := p :: !plain;
    if traced then begin
      let t = pass w ~seed ~size ~traced:true in
      log (Printf.sprintf "traced pass:   setup %.3f s, run %.3f s, %.0f ops/s" t.setup_s t.run_s
             (ops_per_s t));
      traced_passes := t :: !traced_passes
    end
  done;
  if not traced then traced_passes := [ pass w ~seed ~size ~traced:true ];
  let plain = List.rev !plain and traced_passes = List.rev !traced_passes in
  let reference = List.hd traced_passes in
  let passes = (warm :: plain) @ traced_passes in
  let errors = gate ~passes ~reference ~pinned in
  let measured = plain @ traced_passes in
  let attempted = List.fold_left (fun acc p -> acc + p.outcome.ops) 0 measured in
  let failed = List.fold_left (fun acc p -> acc + p.outcome.failed) 0 measured in
  (* Host time in [Reference] units: how much slower than nominal this
     host ran the kernel, over the run. *)
  let reference_s = Samples.median !reference_s in
  let slowdown = reference_s /. Reference.nominal_s in
  let raw_ops_per_s = median_of ops_per_s plain and raw_setup_s = median_of (fun p -> p.setup_s) plain in
  let metrics =
    if not traced then
      [
        Metric.v "ops_per_s" "1/s" (raw_ops_per_s *. slowdown);
        Metric.v "setup_s" "s" (raw_setup_s /. slowdown);
        Metric.v "minor_words_per_op" "words" (median_of (fun p -> per_op p p.gc.minor_words) plain);
        Metric.v "promoted_words_per_op" "words"
          (median_of (fun p -> per_op p p.gc.promoted_words) plain);
        Metric.v "peak_heap_mb" "MB" peak_heap_mb;
      ]
      @ reference.outcome.values
    else
      let overhead =
        100.0 *. ((median_of ops_per_s plain /. median_of ops_per_s traced_passes) -. 1.0)
      in
      median_metrics
        (List.map
           (fun p ->
             p.layers
             @ p.outcome.values
             @ [
                 Metric.v "op_error_share" "ratio"
                   (float_of_int p.outcome.failed /. float_of_int p.outcome.ops);
               ])
           traced_passes)
      @ [
          Metric.v "tracing.overhead_pct" "%" overhead;
          Metric.v "host.reference_s" "s" reference_s;
          Metric.v "host.raw_ops_per_s" "1/s" raw_ops_per_s;
          Metric.v "host.raw_setup_s" "s" raw_setup_s;
        ]
  in
  {
    correct = errors = [];
    attempted;
    failed;
    metrics;
    errors;
    reference_values = reference.outcome.values;
    reference_digest = reference.outcome.digest;
  }

let to_json r =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}" r.correct
    r.attempted r.failed (Metric.to_json r.metrics)
