(* Shared plumbing for the experiment harness. *)
open Sim

(* Experiment durations scale down when the QUICK environment variable is
   set, for fast iteration; published numbers use the full durations. *)
let quick = Sys.getenv_opt "QUICK" <> None

let minutes m =
  let m = if quick then Float.max 1.0 (m /. 5.0) else m in
  Time.span_s (60.0 *. m)

let section title = Fmt.pr "@.######## %s ########@.@." title

let note fmt = Fmt.pr ("  " ^^ fmt ^^ "@.")

(* Machine-readable results: experiments record their headline numbers
   here and the harness drains them per experiment for --json output.  A
   queue, so take_metrics preserves insertion order by construction —
   --check compares two runs' metrics and renders them in that order.  Call
   put_metric only from the main domain (record pool results after the
   parallel phase, not inside work items). *)
let metrics : (string * float) Queue.t = Queue.create ()
let put_metric name value = Queue.add (name, value) metrics

let take_metrics () =
  let recorded = List.of_seq (Queue.to_seq metrics) in
  Queue.clear metrics;
  recorded

let run_machine ?(seed = 42) ~cfg ~profile ~duration () =
  (* The generated trace streams straight into the replay; no experiment
     holds a full record list. *)
  let trace = Trace.Synth.generate_seq profile ~rng:(Rng.create ~seed) ~duration in
  let machine = Ssmc.Machine.create cfg in
  Ssmc.Machine.preload machine trace.Trace.Synth.stream_initial_files;
  let result = Ssmc.Machine.run_seq machine trace.Trace.Synth.seq in
  (machine, result)

let p50 h = Stat.Histogram.quantile h 0.5
let p99 h = Stat.Histogram.quantile h 0.99

let cell_us v = Table.cell_f ~decimals:1 v
