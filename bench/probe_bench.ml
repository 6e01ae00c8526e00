(* Sim.Probe overhead: the telemetry layer must be effectively free when
   nothing is listening.  Three measurements:

   - the disabled recording path (one atomic load and a branch), per call;
   - the enabled path, for scale;
   - the end-to-end replay, probes disabled, in ns per trace record.

   A fourth, non-Bechamel pass runs one instrumented replay with metrics on
   and counts how many probe recordings a trace record triggers on average.
   disabled-call cost x calls per record / replay cost per record is the
   fraction of replay time the dormant instrumentation can account for —
   CI pins it below 2%. *)
open Bechamel
open Toolkit

let p_bench = Sim.Probe.counter "bench.probe.incr"
let s_bench = Sim.Probe.summary "bench.probe.observe"

let test_disabled_incr =
  Test.make ~name:"probe: counter incr, disabled"
    (Staged.stage (fun () -> Sim.Probe.incr p_bench))

let test_disabled_observe =
  Test.make ~name:"probe: summary observe, disabled"
    (Staged.stage (fun () -> Sim.Probe.observe s_bench 123.0))

let test_enabled_incr =
  Test.make ~name:"probe: counter incr, enabled"
    (Staged.stage (fun () -> Sim.Probe.incr p_bench))

let test_enabled_observe =
  Test.make ~name:"probe: summary observe, enabled"
    (Staged.stage (fun () -> Sim.Probe.observe s_bench 123.0))

let gen_duration = Sim.Time.span_s 60.0

let gen_stream ~seed () =
  Trace.Synth.generate_seq Trace.Workloads.engineering
    ~rng:(Sim.Rng.create ~seed) ~duration:gen_duration

let gen_records =
  lazy (Seq.fold_left (fun n _ -> n + 1) 0 (gen_stream ~seed:3 ()).Trace.Synth.seq)

let replay () =
  let machine = Ssmc.Machine.create (Ssmc.Config.solid_state ~seed:5 ()) in
  let trace = gen_stream ~seed:3 () in
  Ssmc.Machine.preload machine trace.Trace.Synth.stream_initial_files;
  ignore (Ssmc.Machine.run_seq machine trace.Trace.Synth.seq)

let test_replay_disabled =
  Test.make ~name:"replay: 60s engineering, probes disabled"
    (Staged.stage replay)

(* How many probe recording CALLS one trace record triggers, measured on
   the same replay the denominator uses.  For most counters the value is
   the call count (one incr per unit); the byte counters and the VM fetch
   counter add many units in a single call, so they are excluded and their
   call sites counted via the sibling per-operation counter that shares the
   same branch (one bytes add per device read/program/write; one fetch add
   per program launch). *)
let bulk_counters =
  [
    "device.flash.bytes_read"; "device.flash.bytes_programmed";
    "device.dram.bytes_read"; "device.dram.bytes_written";
    "vm.exec.fetches";
  ]

let recordings_per_record () =
  Sim.Probe.reset ();
  replay ();
  let snap = Sim.Probe.snapshot () in
  Sim.Probe.reset ();
  let per_unit =
    List.fold_left
      (fun acc (name, v) ->
        match v with
        | Sim.Probe.Snapshot.Counter c when not (List.mem name bulk_counters) ->
          acc + c
        | Sim.Probe.Snapshot.Counter _ -> acc
        | Sim.Probe.Snapshot.Gauge _ -> acc + 1
        | Sim.Probe.Snapshot.Summary s -> acc + s.n
        | Sim.Probe.Snapshot.Histogram buckets ->
          acc + List.fold_left (fun a (_, _, c) -> a + c) 0 buckets)
      0 snap
  in
  let c name = Sim.Probe.Snapshot.counter_value snap name in
  let bulk_calls =
    c "device.flash.reads" + c "device.flash.programs" + c "device.dram.reads"
    + c "device.dram.writes" + c "vm.exec.launches"
  in
  float_of_int (per_unit + bulk_calls) /. float_of_int (Lazy.force gen_records)

let estimate_all tests =
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:true () in
  let grouped = Test.make_grouped ~name:"probe" ~fmt:"%s %s" tests in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      let estimate =
        match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan
      in
      (name, estimate) :: acc)
    results []

let find_estimate rows suffix =
  match
    List.find_opt
      (fun (name, _) ->
        String.length name >= String.length suffix
        && String.sub name
             (String.length name - String.length suffix)
             (String.length suffix)
           = suffix)
      rows
  with
  | Some (_, e) -> e
  | None -> nan

let run () =
  Common.section "probe overhead: dormant telemetry vs replay cost";
  (* The harness leaves metric recording on for the experiment tables; the
     disabled-path measurements need it off.  Restore on the way out. *)
  let was_metrics = Sim.Probe.metrics_enabled () in
  Sim.Probe.set_metrics false;
  let disabled_rows =
    estimate_all [ test_disabled_incr; test_disabled_observe; test_replay_disabled ]
  in
  Sim.Probe.set_metrics true;
  let enabled_rows = estimate_all [ test_enabled_incr; test_enabled_observe ] in
  let calls = recordings_per_record () in
  Sim.Probe.set_metrics was_metrics;
  let rows = disabled_rows @ enabled_rows in
  let t =
    Sim.Table.create ~title:"nanoseconds per call (OLS estimate)"
      ~columns:[ ("benchmark", Sim.Table.Left); ("ns", Sim.Table.Right) ]
  in
  List.iter
    (fun (name, e) -> Sim.Table.add_row t [ name; Printf.sprintf "%.1f" e ])
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows);
  Sim.Table.print t;
  let disabled_incr_ns = find_estimate rows "counter incr, disabled" in
  let replay_ns = find_estimate rows "probes disabled" in
  let replay_ns_per_record = replay_ns /. float_of_int (Lazy.force gen_records) in
  let overhead =
    if Float.is_finite disabled_incr_ns && replay_ns_per_record > 0.0 then
      disabled_incr_ns *. calls /. replay_ns_per_record
    else nan
  in
  Common.put_metric "probe_disabled_incr_ns" disabled_incr_ns;
  Common.put_metric "probe_calls_per_record" calls;
  Common.put_metric "probe_replay_ns_per_record" replay_ns_per_record;
  Common.put_metric "probe_replay_overhead_frac" overhead;
  Common.note "%.1f probe calls per record, %.0f ns replay per record" calls
    replay_ns_per_record;
  Common.note
    "implied dormant-probe share of replay time: %.3f%% (CI pins < 2%%)"
    (100.0 *. overhead)
