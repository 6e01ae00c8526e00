(* Coverage for the smaller public APIs not exercised elsewhere. *)
open Sim

let test_vfs_path_of_file_id () =
  Alcotest.(check string) "mapping" "/data/f17" (Fs.Vfs.path_of_file_id 17)

let test_trends_configuration_cost () =
  (* 20MB of flash at $50/MB in 1993. *)
  Alcotest.(check (float 1.0)) "20MB flash ~ $1000" 1000.0
    (Ssmc.Trends.configuration_cost Ssmc.Trends.Flash ~year:1993.0 ~capacity_mb:20.0);
  Alcotest.(check string) "tech names" "DRAM" (Ssmc.Trends.tech_name Ssmc.Trends.Dram)

let test_machine_manual_account () =
  let machine = Ssmc.Machine.create (Ssmc.Config.solid_state ()) in
  let engine = Ssmc.Machine.engine machine in
  Engine.run_until engine (Time.of_ns 60_000_000_000);
  Ssmc.Machine.account machine;
  (* A minute of idle self-refresh and flash standby must drain something. *)
  Alcotest.(check bool) "battery drained by idle draw" true
    (Device.Battery.fraction_remaining (Ssmc.Machine.battery machine) < 1.0)

let test_fs_names () =
  let engine = Engine.create () in
  let flash = Device.Flash.create (Device.Flash.config ~size_bytes:(256 * 1024) ()) in
  let dram = Device.Dram.create ~size_bytes:Units.mib ~battery_backed:true () in
  let manager = Storage.Manager.create Storage.Manager.default_config ~engine ~flash ~dram in
  let memfs = Fs.Memfs.create_fs ~manager () in
  Alcotest.(check string) "memfs" "memfs" (Fs.Memfs.name memfs);
  let disk = Device.Disk.create ~rng:(Rng.create ~seed:1) () in
  let ffs = Fs.Ffs.create_fs ~engine:(Engine.create ()) ~disk ~dram () in
  Alcotest.(check string) "ffs" "ffs" (Fs.Ffs.name ffs)

let test_policy_printers () =
  Alcotest.(check string) "greedy" "greedy" (Storage.Cleaner.policy_name Storage.Cleaner.Greedy);
  Alcotest.(check string) "cb" "cost-benefit"
    (Storage.Cleaner.policy_name Storage.Cleaner.Cost_benefit);
  Alcotest.(check string) "wear none" "none" (Storage.Wear.policy_name Storage.Wear.None_);
  Alcotest.(check string) "wear static" "static(5)"
    (Storage.Wear.policy_name (Storage.Wear.Static { spread_threshold = 5 }));
  Alcotest.(check string) "banks" "partitioned(2)"
    (Storage.Banks.policy_name (Storage.Banks.Partitioned { write_banks = 2 }));
  Alcotest.(check string) "prot" "rwx"
    (Fmt.str "%a" Vmem.Page_table.pp_prot Vmem.Page_table.prot_rwx)

let test_block_is_dirty () =
  let engine = Engine.create () in
  let flash = Device.Flash.create (Device.Flash.config ~size_bytes:(256 * 1024) ()) in
  let dram = Device.Dram.create ~size_bytes:Units.mib ~battery_backed:true () in
  let manager = Storage.Manager.create Storage.Manager.default_config ~engine ~flash ~dram in
  let b = Storage.Manager.alloc manager in
  Alcotest.(check bool) "blank not dirty" false (Storage.Manager.block_is_dirty manager b);
  ignore (Storage.Manager.write_block manager b);
  Alcotest.(check bool) "buffered dirty" true (Storage.Manager.block_is_dirty manager b);
  ignore (Storage.Manager.flush_all manager);
  Alcotest.(check bool) "flushed not dirty" false (Storage.Manager.block_is_dirty manager b)

let test_battery_edge_cases () =
  Alcotest.check_raises "zero capacity" (Invalid_argument "Battery.create: capacity <= 0")
    (fun () -> ignore (Device.Battery.create ~capacity_joules:0.0 ()));
  let b = Device.Battery.create ~capacity_joules:10.0 () in
  Alcotest.check_raises "negative drain" (Invalid_argument "Battery.drain: negative")
    (fun () -> Device.Battery.drain b ~joules:(-1.0));
  Alcotest.check_raises "negative draw holdup"
    (Invalid_argument "Battery.holdup_time: negative draw") (fun () ->
      ignore (Device.Battery.holdup_time b ~draw_watts:(-1.0)));
  (* An idle machine drawing nothing keeps its DRAM forever — not a crash. *)
  Alcotest.(check bool) "zero draw holds forever" true
    (Device.Battery.holdup_time b ~draw_watts:0.0 = Device.Battery.Unbounded);
  Alcotest.(check bool) "vanishing draw saturates to unbounded" true
    (Device.Battery.holdup_time b ~draw_watts:1e-300 = Device.Battery.Unbounded)

let test_sizing_pp_and_lifetime_errors () =
  Alcotest.check_raises "bad skew" (Invalid_argument "Lifetime.years: skew < 1")
    (fun () ->
      ignore
        (Ssmc.Lifetime.years
           {
             Ssmc.Lifetime.endurance = 10;
             total_sectors = 10;
             sector_bytes = 512;
             flash_write_bytes_per_day = 1.0;
             write_amplification = 1.0;
             wear_skew = 0.5;
           }))

let test_replay_run_all () =
  (* Replay keeps the engine running [drain] past the last record: events
     inside the window fire, the clock stops at its end, and events beyond
     it never fire. *)
  let machine = Ssmc.Machine.create (Ssmc.Config.solid_state ()) in
  Ssmc.Machine.preload machine [];
  let engine = Ssmc.Machine.engine machine in
  let started = Time.to_ns (Engine.now engine) in
  let at s = Time.of_ns (started + int_of_float (s *. 1e9)) in
  let fired = ref [] in
  List.iter
    (fun s -> ignore (Engine.schedule engine ~at:(at s) (fun _ -> fired := s :: !fired)))
    [ 5.0; 12.0 ];
  let records =
    [ { Trace.Record.at = Time.of_ns 1_000_000_000; op = Trace.Record.Create { file = 1 } } ]
  in
  let result = Ssmc.Machine.run ~drain:(Time.span_s 10.0) machine records in
  Alcotest.(check (list (float 0.0))) "only the in-window event fired" [ 5.0 ] !fired;
  Alcotest.(check int) "clock at the drain point" (Time.to_ns (at 11.0))
    (Time.to_ns (Engine.now engine));
  Alcotest.(check (float 1e-9)) "elapsed spans the drain" 11.0
    (Time.span_to_s result.Ssmc.Machine.elapsed)

let test_chart_empty_and_flat () =
  (* Degenerate inputs render without crashing. *)
  ignore (Sim.Chart.bars ~title:"empty" ~unit:"" []);
  let flat = Sim.Chart.bars ~title:"flat" ~unit:"u" [ ("a", 0.0); ("b", 0.0) ] in
  Alcotest.(check bool) "zero-height bars" true (String.length flat > 0)

let test_calibration_pp () =
  let t =
    Trace.Synth.generate Trace.Workloads.pim ~rng:(Rng.create ~seed:5)
      ~duration:(Time.span_s 120.0)
  in
  let report = Trace.Calibration.analyze t in
  let rendered = Fmt.str "%a" Trace.Calibration.pp_report report in
  Alcotest.(check bool) "report renders" true (String.length rendered > 50)

let test_machine_drain_parameter () =
  let trace =
    Trace.Synth.generate
      { Trace.Workloads.pim with Trace.Synth.population = 20 }
      ~rng:(Rng.create ~seed:31) ~duration:(Time.span_s 30.0)
  in
  let machine = Ssmc.Machine.create (Ssmc.Config.solid_state ~seed:31 ()) in
  Ssmc.Machine.preload machine trace.Trace.Synth.initial_files;
  let result = Ssmc.Machine.run ~drain:(Time.span_s 300.0) machine trace.Trace.Synth.records in
  (* A long drain gives every deadline time to flush. *)
  let stats = Option.get result.Ssmc.Machine.manager_stats in
  Alcotest.(check int) "nothing left dirty" 0 stats.Storage.Manager.dirty_blocks;
  Alcotest.(check bool) "elapsed covers the drain" true
    (Time.span_to_s result.Ssmc.Machine.elapsed >= 300.0)

let test_card_eject_report_pp () =
  let engine = Engine.create () in
  let host_dram = Device.Dram.create ~size_bytes:Units.mib ~battery_backed:true () in
  let card = Ssmc.Card.create ~size_mb:1 ~engine ~host_dram () in
  let report = Ssmc.Card.eject card in
  let rendered = Fmt.str "%a" Ssmc.Card.pp_eject_report report in
  Alcotest.(check bool) "renders" true (String.length rendered > 10)

let suite =
  [
    Alcotest.test_case "vfs path mapping" `Quick test_vfs_path_of_file_id;
    Alcotest.test_case "trends configuration cost" `Quick test_trends_configuration_cost;
    Alcotest.test_case "machine manual account" `Quick test_machine_manual_account;
    Alcotest.test_case "fs names" `Quick test_fs_names;
    Alcotest.test_case "policy printers" `Quick test_policy_printers;
    Alcotest.test_case "block_is_dirty" `Quick test_block_is_dirty;
    Alcotest.test_case "battery edge cases" `Quick test_battery_edge_cases;
    Alcotest.test_case "lifetime errors" `Quick test_sizing_pp_and_lifetime_errors;
    Alcotest.test_case "replay run_all" `Quick test_replay_run_all;
    Alcotest.test_case "chart degenerate" `Quick test_chart_empty_and_flat;
    Alcotest.test_case "calibration pp" `Quick test_calibration_pp;
    Alcotest.test_case "machine drain" `Quick test_machine_drain_parameter;
    Alcotest.test_case "card report pp" `Quick test_card_eject_report_pp;
  ]
