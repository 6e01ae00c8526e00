(* Sim.Probe: registry semantics, snapshot algebra, per-domain merging,
   Chrome-trace emission, the Machine.preload "start clean" contract, and
   the telemetry of a faulted whole-machine replay. *)
open Sim

(* Every test leaves the probes as it found them: disabled and clean. *)
let with_probes ?(timeline = false) f =
  Probe.set_metrics true;
  if timeline then Probe.set_timeline true;
  Probe.reset_all ();
  Fun.protect f ~finally:(fun () ->
      Probe.reset_all ();
      Probe.set_metrics false;
      Probe.set_timeline false)

let test_record_and_snapshot () =
  with_probes (fun () ->
      let c = Probe.counter "t.c" and g = Probe.gauge "t.g" in
      let s = Probe.summary "t.s" and h = Probe.histogram "t.h" in
      Probe.incr c;
      Probe.add c 4;
      Probe.set g 2.5;
      Probe.observe s 1.0;
      Probe.observe s 3.0;
      Probe.observe_hist h 10.0;
      let snap = Probe.snapshot () in
      let names = List.map fst snap in
      Alcotest.(check (list string)) "sorted by name" (List.sort compare names) names;
      Alcotest.(check int) "counter" 5 (Probe.Snapshot.counter_value snap "t.c");
      (match Probe.Snapshot.find snap "t.g" with
      | Some (Probe.Snapshot.Gauge v) -> Alcotest.(check (float 0.0)) "gauge" 2.5 v
      | _ -> Alcotest.fail "gauge missing");
      (match Probe.Snapshot.find snap "t.s" with
      | Some (Probe.Snapshot.Summary { n; sum; vmin; vmax }) ->
        Alcotest.(check int) "summary n" 2 n;
        Alcotest.(check (float 1e-9)) "summary sum" 4.0 sum;
        Alcotest.(check (float 1e-9)) "summary min" 1.0 vmin;
        Alcotest.(check (float 1e-9)) "summary max" 3.0 vmax
      | _ -> Alcotest.fail "summary missing");
      match Probe.Snapshot.find snap "t.h" with
      | Some (Probe.Snapshot.Histogram buckets) ->
        Alcotest.(check int) "histogram count" 1
          (List.fold_left (fun a (_, _, n) -> a + n) 0 buckets)
      | _ -> Alcotest.fail "histogram missing")

let test_disabled_is_noop () =
  Probe.set_metrics false;
  Probe.reset_all ();
  Probe.incr (Probe.counter "t.off");
  Probe.observe (Probe.summary "t.off_s") 1.0;
  let snap = Probe.snapshot () in
  Alcotest.(check bool) "nothing recorded" true
    (List.for_all (fun (_, v) -> Probe.Snapshot.is_zero v) snap);
  Alcotest.(check int) "counter absent" 0 (Probe.Snapshot.counter_value snap "t.off")

let test_kind_clash () =
  with_probes (fun () ->
      Probe.incr (Probe.counter "t.clash");
      match Probe.set (Probe.gauge "t.clash") 1.0 with
      | () -> Alcotest.fail "expected Invalid_argument on kind clash"
      | exception Invalid_argument _ -> ())

(* --- Snapshot algebra (counter-only snapshots built directly) ---------------- *)

let alphabet = [ "m.a"; "m.b"; "m.c"; "m.d"; "m.e" ]

let snap_gen =
  QCheck.Gen.(
    list_size (int_range 0 6)
      (pair (oneofl alphabet) (int_range 0 100))
    >|= fun kvs ->
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (k, v) ->
        Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
      kvs;
    List.sort compare
      (Hashtbl.fold
         (fun k v acc -> (k, Probe.Snapshot.Counter v) :: acc)
         tbl []))

let pp_snap snap =
  String.concat ";"
    (List.map
       (fun (k, v) ->
         match v with
         | Probe.Snapshot.Counter c -> Printf.sprintf "%s=%d" k c
         | _ -> k)
       snap)

let snap_arb = QCheck.make ~print:pp_snap snap_gen
let cv = Probe.Snapshot.counter_value

let prop_diff_self_is_zero =
  QCheck.Test.make ~name:"probe: diff s s is all-zero" ~count:200 snap_arb
    (fun s ->
      List.for_all
        (fun (_, v) -> Probe.Snapshot.is_zero v)
        (Probe.Snapshot.diff ~later:s ~earlier:s))

let prop_merge_empty_identity =
  QCheck.Test.make ~name:"probe: merge s empty = s" ~count:200 snap_arb
    (fun s ->
      Probe.Snapshot.merge s Probe.Snapshot.empty = s
      && Probe.Snapshot.merge Probe.Snapshot.empty s = s)

let prop_merge_adds_and_commutes =
  QCheck.Test.make ~name:"probe: merge adds counters, commutatively" ~count:200
    (QCheck.pair snap_arb snap_arb)
    (fun (a, b) ->
      let m = Probe.Snapshot.merge a b in
      m = Probe.Snapshot.merge b a
      && List.for_all (fun k -> cv m k = cv a k + cv b k) alphabet)

let prop_diff_recovers_merge =
  QCheck.Test.make ~name:"probe: diff (merge a b) b recovers a" ~count:200
    (QCheck.pair snap_arb snap_arb)
    (fun (a, b) ->
      let d = Probe.Snapshot.diff ~later:(Probe.Snapshot.merge a b) ~earlier:b in
      List.for_all (fun k -> cv d k = cv a k) alphabet)

(* --- Pool-domain merging ----------------------------------------------------- *)

(* Each work item resets its domain, records, and snapshots: the merged
   total must be identical at any job count (items run sequentially within
   a domain, merge happens in submission order on the caller). *)
let pool_work i =
  Probe.reset ();
  let c = Probe.counter "t.pool.c" and s = Probe.summary "t.pool.s" in
  for _ = 0 to i do
    Probe.incr c
  done;
  Probe.observe s (float_of_int i);
  Probe.snapshot ()

let test_pool_merge_order_independent () =
  with_probes (fun () ->
      let items = [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
      let merged jobs =
        Pool.run_map ~jobs pool_work items
        |> List.fold_left Probe.Snapshot.merge Probe.Snapshot.empty
      in
      let seq = merged 1 in
      let par = merged 2 in
      Alcotest.(check bool) "jobs 1 = jobs 2" true (seq = par);
      Alcotest.(check int) "total increments" 36 (cv seq "t.pool.c");
      match Probe.Snapshot.find seq "t.pool.s" with
      | Some (Probe.Snapshot.Summary { n; sum; _ }) ->
        Alcotest.(check int) "pooled n" 8 n;
        Alcotest.(check (float 1e-9)) "pooled sum" 28.0 sum
      | _ -> Alcotest.fail "pooled summary missing")

(* --- Timeline ---------------------------------------------------------------- *)

let test_timeline_chrome_json () =
  with_probes ~timeline:true (fun () ->
      (* Recorded out of timestamp order on purpose. *)
      Probe.span ~name:"b" ~cat:"test" ~start:(Time.of_ns 2_000)
        ~finish:(Time.of_ns 3_000) ();
      Probe.span ~name:"a" ~cat:"test"
        ~args:[ ("k", "v") ]
        ~start:(Time.of_ns 0) ~finish:(Time.of_ns 1_000) ();
      Probe.instant ~name:"i" ~cat:"test" ~at:(Time.of_ns 500) ();
      let evs = Probe.Timeline.events () in
      Alcotest.(check int) "three events" 3 (List.length evs);
      let ts = List.map (fun e -> e.Probe.Timeline.ev_ts_ns) evs in
      Alcotest.(check bool) "timestamps monotone" true (List.sort compare ts = ts);
      (match Json.of_string (Json.to_string (Probe.Timeline.to_chrome_json evs)) with
      | Error e -> Alcotest.failf "trace JSON unparseable: %s" e
      | Ok (Json.Obj fields) -> (
        match List.assoc_opt "traceEvents" fields with
        | Some (Json.List l) -> Alcotest.(check int) "traceEvents" 3 (List.length l)
        | _ -> Alcotest.fail "no traceEvents list")
      | Ok _ -> Alcotest.fail "trace JSON is not an object");
      match
        Probe.span ~name:"bad" ~cat:"test" ~start:(Time.of_ns 10)
          ~finish:(Time.of_ns 5) ()
      with
      | () -> Alcotest.fail "expected Invalid_argument on negative span"
      | exception Invalid_argument _ -> ())

let prop_timeline_roundtrip =
  QCheck.Test.make ~name:"probe: timeline JSON parses, timestamps monotone"
    ~count:50
    QCheck.(
      list_of_size (Gen.int_range 0 40) (pair (int_bound 1_000_000) (int_bound 10_000)))
    (fun spans ->
      Probe.set_timeline true;
      Probe.reset ();
      Fun.protect
        ~finally:(fun () ->
          Probe.reset ();
          Probe.set_timeline false)
        (fun () ->
          List.iter
            (fun (start, dur) ->
              Probe.span ~name:"s" ~cat:"q" ~start:(Time.of_ns start)
                ~finish:(Time.of_ns (start + dur)) ())
            spans;
          let evs = Probe.Timeline.events () in
          let ts = List.map (fun e -> e.Probe.Timeline.ev_ts_ns) evs in
          List.length evs = List.length spans
          && List.sort compare ts = ts
          &&
          match Json.of_string (Json.to_string (Probe.Timeline.to_chrome_json evs)) with
          | Ok _ -> true
          | Error _ -> false))

(* --- Machine.preload "start clean" contract ---------------------------------- *)

let dirty_then_preload cfg =
  let machine = Ssmc.Machine.create cfg in
  let apply op = ignore (Ssmc.Machine.apply machine { Trace.Record.at = Time.zero; op }) in
  apply (Trace.Record.Create { file = 9001 });
  apply (Trace.Record.Write { file = 9001; offset = 0; bytes = 65536 });
  apply (Trace.Record.Read { file = 9001; offset = 0; bytes = 4096 });
  (* A read of a missing file: the op-error counter must clear too. *)
  apply (Trace.Record.Read { file = 9999; offset = 0; bytes = 512 });
  apply (Trace.Record.Delete { file = 9001 });
  Ssmc.Machine.preload machine [ (1, 16384); (2, 8192) ];
  let snap = Probe.snapshot () in
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s zero after preload" name)
        true
        (Probe.Snapshot.is_zero v))
    snap;
  match Ssmc.Machine.ffs machine with
  | None -> ()
  | Some f ->
    let cache = Fs.Ffs.cache f in
    Alcotest.(check int) "cache hits zero" 0 (Fs.Buffer_cache.hits cache);
    Alcotest.(check int) "cache misses zero" 0 (Fs.Buffer_cache.misses cache);
    Alcotest.(check int) "cache writebacks zero" 0 (Fs.Buffer_cache.writebacks cache)

let test_preload_starts_clean () =
  with_probes (fun () ->
      dirty_then_preload (Ssmc.Config.solid_state ~seed:5 ());
      dirty_then_preload (Ssmc.Config.conventional ~seed:5 ()))

(* --- A faulted replay, end to end -------------------------------------------- *)

(* Five minutes of pim traffic with no backup battery and the primary
   dying at 120 s: a cold restart.  The snapshot holds exactly this
   replay's activity, because preload resets the domain's registry. *)
let faulted_replay seed =
  let trace =
    Trace.Synth.generate_seq Trace.Workloads.pim ~rng:(Rng.create ~seed)
      ~duration:(Time.span_s 300.0)
  in
  let machine = Ssmc.Machine.create (Ssmc.Config.solid_state ~backup_wh:0.0 ~seed ()) in
  Ssmc.Machine.preload machine trace.Trace.Synth.stream_initial_files;
  let faults =
    Fault.schedule [ { Fault.kind = Fault.Battery_depletion; after = Time.span_s 120.0 } ]
  in
  ignore (Ssmc.Machine.run_seq ~faults machine trace.Trace.Synth.seq);
  Probe.snapshot ()

let test_faulted_replay_telemetry () =
  with_probes ~timeline:true (fun () ->
      let snap = faulted_replay 42 in
      let trace =
        Json.to_string (Probe.Timeline.to_chrome_json (Probe.Timeline.events ()))
      in
      let evs =
        match Json.of_string trace with
        | Ok doc -> (
          match Json.member "traceEvents" doc with
          | Some (Json.List evs) -> evs
          | _ -> Alcotest.fail "no traceEvents list")
        | Error e -> Alcotest.failf "trace JSON unparseable: %s" e
      in
      let field name ev =
        match Json.member name ev with
        | Some v -> v
        | None -> Alcotest.failf "trace event without %S" name
      in
      Alcotest.(check bool) "events recorded" true (evs <> []);
      let ts =
        List.map
          (fun ev ->
            match field "ts" ev with
            | Json.Number t -> t
            | _ -> Alcotest.fail "non-numeric timestamp")
          evs
      in
      Alcotest.(check bool) "timestamps never decrease" true (List.sort compare ts = ts);
      Alcotest.(check bool) "phases are X or i" true
        (List.for_all
           (fun ev -> List.mem (field "ph" ev) [ Json.String "X"; Json.String "i" ])
           evs);
      let named n = List.exists (fun ev -> field "name" ev = Json.String n) evs in
      Alcotest.(check bool) "fault event" true (named "fault");
      Alcotest.(check bool) "remount event" true (named "manager.remount");
      Alcotest.(check int) "machine.faults" 1 (cv snap "machine.faults");
      Alcotest.(check int) "storage.manager.remounts" 1
        (cv snap "storage.manager.remounts");
      (* Each seed snapshots after its own replay; merged in seed order,
         the totals cannot depend on which domain ran which seed. *)
      let merged jobs =
        Pool.run_map ~jobs faulted_replay [ 42; 43 ]
        |> List.fold_left Probe.Snapshot.merge Probe.Snapshot.empty
        |> Probe.Snapshot.to_json |> Json.to_string
      in
      Alcotest.(check string) "jobs 1 = jobs 2" (merged 1) (merged 2))

let suite =
  [
    Alcotest.test_case "record and snapshot" `Quick test_record_and_snapshot;
    Alcotest.test_case "disabled is no-op" `Quick test_disabled_is_noop;
    Alcotest.test_case "kind clash rejected" `Quick test_kind_clash;
    QCheck_alcotest.to_alcotest prop_diff_self_is_zero;
    QCheck_alcotest.to_alcotest prop_merge_empty_identity;
    QCheck_alcotest.to_alcotest prop_merge_adds_and_commutes;
    QCheck_alcotest.to_alcotest prop_diff_recovers_merge;
    Alcotest.test_case "pool merge order-independent" `Quick
      test_pool_merge_order_independent;
    Alcotest.test_case "timeline chrome JSON" `Quick test_timeline_chrome_json;
    QCheck_alcotest.to_alcotest prop_timeline_roundtrip;
    Alcotest.test_case "preload starts clean" `Quick test_preload_starts_clean;
    Alcotest.test_case "faulted replay telemetry" `Quick test_faulted_replay_telemetry;
  ]
