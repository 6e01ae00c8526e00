(* Fleet-scale simulation: determinism across job counts and shard
   sizes, fault composition, and bounded memory: live heap flat in the
   fleet size, and no machine kept alive once a run returns. *)
open Sim

(* A small but heterogeneous fleet: cheap enough for the suite, yet it
   exercises every variant, several workloads, and shard remainders. *)
let small_spec ?(devices = 10) ?(shard = 4) ?(faults_per_device = 0) () =
  Ssmc.Fleet.spec ~devices ~shard ~base_seed:11 ~duration:(Time.span_s 30.0)
    ~faults_per_device ()

(* Reports hold only scalars, lists, summaries, and sketches — no
   closures, no machines — so structural comparison is a complete
   byte-identity check. *)
let check_reports_equal what (a : Ssmc.Fleet.report) (b : Ssmc.Fleet.report) =
  Alcotest.(check bool) (what ^ ": reports byte-identical") true
    (Stdlib.compare a b = 0);
  (* Spot checks so a failure names the field instead of "compare <> 0". *)
  Alcotest.(check int) (what ^ ": ops") a.Ssmc.Fleet.ops b.Ssmc.Fleet.ops;
  Alcotest.(check (float 0.0))
    (what ^ ": wear p99")
    (Stat.Quantiles.quantile a.Ssmc.Fleet.wear_max_erases 0.99)
    (Stat.Quantiles.quantile b.Ssmc.Fleet.wear_max_erases 0.99);
  Alcotest.(check string) (what ^ ": probes")
    (Json.to_string (Probe.Snapshot.to_json a.Ssmc.Fleet.probes))
    (Json.to_string (Probe.Snapshot.to_json b.Ssmc.Fleet.probes))

let test_jobs_invariance () =
  let spec = small_spec () in
  let r1 = Ssmc.Fleet.run ~jobs:1 spec in
  let r3 = Ssmc.Fleet.run ~jobs:3 spec in
  check_reports_equal "jobs 1 vs 3" r1 r3;
  Alcotest.(check int) "all devices accounted" spec.Ssmc.Fleet.devices
    (List.fold_left (fun acc (_, n) -> acc + n) 0 r1.Ssmc.Fleet.by_variant)

let test_shard_invariance () =
  let r_small = Ssmc.Fleet.run ~jobs:2 (small_spec ~shard:3 ()) in
  let r_big = Ssmc.Fleet.run ~jobs:2 (small_spec ~shard:64 ()) in
  check_reports_equal "shard 3 vs 64" r_small r_big

let test_fault_composition () =
  (* Random per-device fault schedules compose with fleet aggregation:
     every device takes its events, and the whole thing stays
     deterministic (same spec, same report — at different job counts). *)
  let spec = small_spec ~devices:8 ~faults_per_device:2 () in
  let r1 = Ssmc.Fleet.run ~jobs:1 spec in
  let r2 = Ssmc.Fleet.run ~jobs:2 spec in
  check_reports_equal "faulted runs" r1 r2;
  Alcotest.(check int) "every device took its faults" 16 r1.Ssmc.Fleet.faults

let test_simulate_device_matches_run () =
  (* The per-device path is the same whether driven alone or via [run]:
     summing per-device scalars reproduces the fleet totals. *)
  let spec = small_spec ~devices:6 ~shard:2 () in
  let reports =
    List.init spec.Ssmc.Fleet.devices (fun index ->
        Ssmc.Fleet.simulate_device spec ~index)
  in
  let fleet = Ssmc.Fleet.run ~jobs:2 spec in
  Alcotest.(check int) "ops add up" fleet.Ssmc.Fleet.ops
    (List.fold_left (fun acc d -> acc + d.Ssmc.Fleet.d_ops) 0 reports);
  Alcotest.(check int) "errors add up" fleet.Ssmc.Fleet.op_errors
    (List.fold_left (fun acc d -> acc + d.Ssmc.Fleet.d_op_errors) 0 reports);
  (* And re-simulating a device is bit-stable. *)
  let d2 = Ssmc.Fleet.simulate_device spec ~index:2 in
  let d2' = Ssmc.Fleet.simulate_device spec ~index:2 in
  Alcotest.(check bool) "device report reproducible" true (Stdlib.compare d2 d2' = 0)

let test_validate_rejects () =
  let bad devices shard = { (small_spec ()) with Ssmc.Fleet.devices; shard } in
  List.iter
    (fun spec ->
      match Ssmc.Fleet.validate spec with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "validate accepted a bad spec")
    [ bad 0 4; bad 4 0; { (small_spec ()) with Ssmc.Fleet.variants = [] };
      { (small_spec ()) with Ssmc.Fleet.mix = [] };
      { (small_spec ()) with Ssmc.Fleet.faults_per_device = -1 };
      { (small_spec ()) with Ssmc.Fleet.wearout_horizon_years = 0.0 } ];
  Alcotest.check_raises "run rejects"
    (Invalid_argument "Fleet.run: devices < 1") (fun () ->
      ignore (Ssmc.Fleet.run (bad 0 4)))

(* --- Bounded memory ------------------------------------------------------ *)

(* The fleet streams devices shard by shard and releases each shard's
   machines before the next starts, so live heap depends on the shard size
   and the job count, never on the fleet size.  One tiny model keeps a
   device to milliseconds; the live heap is read after a full major
   collection at every shard boundary. *)
let tiny =
  {
    Ssmc.Fleet.v_weight = 1.0;
    v_name = "tiny-4";
    v_flash_mb = 4;
    v_dram_mb = 1;
    v_nbanks = 2;
    v_flash_spec = Device.Specs.intel_flash;
    v_endurance_override = None;
    v_buffer_kb = None;
    v_mix = Some [ (1.0, Trace.Workloads.pim) ];
  }

let peak_live_words ~jobs ~devices =
  let spec =
    Ssmc.Fleet.spec ~devices ~shard:4 ~base_seed:5 ~duration:(Time.span_s 2.0)
      ~variants:[ tiny ] ()
  in
  let peak = ref 0 in
  let on_shard ~done_devices:_ ~total:_ =
    Gc.full_major ();
    peak := max !peak (Gc.stat ()).Gc.live_words
  in
  let report = Ssmc.Fleet.run ~jobs ~on_shard spec in
  Alcotest.(check int) "no device out of space" 0 report.Ssmc.Fleet.out_of_space;
  !peak

let test_memory_flat_in_fleet_size () =
  List.iter
    (fun jobs ->
      let small = peak_live_words ~jobs ~devices:8 in
      let large = peak_live_words ~jobs ~devices:80 in
      let ratio = float_of_int large /. float_of_int small in
      Printf.printf "jobs %d: peak live words %d (8 devices) -> %d (80), %.2fx\n" jobs
        small large ratio;
      if ratio > 1.3 then
        Alcotest.failf
          "jobs %d: 10x the devices grew peak live heap %.2fx (%d -> %d words); at most \
           1.3x"
          jobs ratio small large)
    [ 1; 2 ]

(* Every device's machine is garbage once its report is folded, so a run
   leaves the live heap where it found it.  A run of the tiny model first
   warms whatever the fleet path sets up once; the 64 MB model then makes
   one retained machine stand out. *)
let big = { tiny with Ssmc.Fleet.v_name = "big-64"; v_flash_mb = 64; v_nbanks = 4 }

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let test_run_retains_no_machine () =
  let machine_words =
    let cfg = Ssmc.Config.solid_state ~dram_mb:1 ~flash_mb:64 ~nbanks:4 ~seed:1 () in
    Obj.reachable_words (Obj.repr (Ssmc.Machine.create cfg))
  in
  List.iter
    (fun jobs ->
      ignore (peak_live_words ~jobs ~devices:4);
      let spec =
        Ssmc.Fleet.spec ~devices:4 ~shard:2 ~base_seed:5 ~duration:(Time.span_s 2.0)
          ~variants:[ big ] ()
      in
      let before = live_words () in
      let report = Ssmc.Fleet.run ~jobs spec in
      let growth = live_words () - before in
      Alcotest.(check int) "no device out of space" 0 report.Ssmc.Fleet.out_of_space;
      Printf.printf "jobs %d: live words %+d across the run; one machine is %d words\n"
        jobs growth machine_words;
      if 20 * growth >= machine_words then
        Alcotest.failf
          "jobs %d: the run left %d more live words; one machine is %d, the limit 5%%"
          jobs growth machine_words)
    [ 1; 2 ]

let suite =
  [
    Alcotest.test_case "report invariant under jobs" `Quick test_jobs_invariance;
    Alcotest.test_case "report invariant under shard size" `Quick test_shard_invariance;
    Alcotest.test_case "fault schedules compose deterministically" `Quick
      test_fault_composition;
    Alcotest.test_case "simulate_device matches run" `Quick
      test_simulate_device_matches_run;
    Alcotest.test_case "validate rejects bad specs" `Quick test_validate_rejects;
    Alcotest.test_case "live heap flat in fleet size" `Quick
      test_memory_flat_in_fleet_size;
    Alcotest.test_case "run retains no machine" `Quick test_run_retains_no_machine;
  ]
