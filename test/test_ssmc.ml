(* Whole-machine assembly, trends, lifetime, recovery, sizing. *)
open Sim

(* --- Trends (Section 2 / E2) ------------------------------------------------- *)

let test_trend_anchors () =
  (* At the anchor year the model must reproduce the Section 2 price points. *)
  Alcotest.(check (float 0.01)) "flash $50/MB in 1993" 50.0
    (Ssmc.Trends.cost_per_mb Ssmc.Trends.Flash ~year:1993.0 ~capacity_mb:40.0);
  Alcotest.(check bool) "dram ~10x disk" true
    (Ssmc.Trends.cost_per_mb Ssmc.Trends.Dram ~year:1993.0 ~capacity_mb:20.0
     /. Ssmc.Trends.cost_per_mb Ssmc.Trends.Disk ~year:1993.0 ~capacity_mb:20.0
    > 8.0)

let test_costs_fall () =
  List.iter
    (fun tech ->
      Alcotest.(check bool)
        (Ssmc.Trends.tech_name tech ^ " gets cheaper")
        true
        (Ssmc.Trends.cost_per_mb tech ~year:2000.0 ~capacity_mb:100.0
        < Ssmc.Trends.cost_per_mb tech ~year:1993.0 ~capacity_mb:100.0))
    [ Ssmc.Trends.Dram; Ssmc.Trends.Flash; Ssmc.Trends.Disk ]

let test_flash_disk_crossover () =
  (* Conservative memory-trend rates put the 40MB crossover around the turn
     of the century... *)
  (match
     Ssmc.Trends.cost_crossover ~cheaper:Ssmc.Trends.Disk ~pricier:Ssmc.Trends.Flash
       ~capacity_mb:40.0 ()
   with
  | Some year ->
    Alcotest.(check bool)
      (Printf.sprintf "conservative crossover %.1f in [1999, 2008]" year)
      true (year >= 1999.0 && year <= 2008.0)
  | None -> Alcotest.fail "no conservative crossover found");
  (* ... while the Intel projection the paper quotes (flash $/MB halving
     yearly) reproduces "by the year 1996" for 40MB configurations. *)
  match
    Ssmc.Trends.cost_crossover ~flash_improvement:1.0 ~cheaper:Ssmc.Trends.Disk
      ~pricier:Ssmc.Trends.Flash ~capacity_mb:40.0 ()
  with
  | Some year ->
    Alcotest.(check bool)
      (Printf.sprintf "aggressive crossover %.1f in [1995, 1998]" year)
      true (year >= 1995.0 && year <= 1998.0)
  | None -> Alcotest.fail "no aggressive crossover found"

let test_large_disks_cross_later () =
  (* At trend rates the small drive's price floor bites before the
     crossover, so small configurations fall to flash years earlier. *)
  let small =
    Ssmc.Trends.cost_crossover ~cheaper:Ssmc.Trends.Disk ~pricier:Ssmc.Trends.Flash
      ~capacity_mb:40.0 ()
  in
  let large =
    Ssmc.Trends.cost_crossover ~cheaper:Ssmc.Trends.Disk ~pricier:Ssmc.Trends.Flash
      ~capacity_mb:1000.0 ()
  in
  match (small, large) with
  | Some s, Some l -> Alcotest.(check bool) "big disks stay cheaper longer" true (l > s)
  | Some _, None -> ()  (* no crossover in the window is "later" too *)
  | None, _ -> Alcotest.fail "small-capacity crossover missing"

let test_density_crossover () =
  (* DRAM (15 MB/in3, +40%/yr) passes the KittyHawk (19, +25%/yr) quickly. *)
  match Ssmc.Trends.density_crossover ~slower:Ssmc.Trends.Disk ~faster:Ssmc.Trends.Dram with
  | Some year ->
    Alcotest.(check bool)
      (Printf.sprintf "density crossover %.1f before 1998" year)
      true (year < 1998.0)
  | None -> Alcotest.fail "no density crossover"

let test_capacity_affordable () =
  (* Section 4's anchor: one budget buys 12MB DRAM / 20MB flash / 120MB disk. *)
  let budget = 12.0 *. Ssmc.Trends.cost_per_mb Ssmc.Trends.Dram ~year:1993.0 ~capacity_mb:12.0 in
  let flash_mb = Ssmc.Trends.capacity_affordable Ssmc.Trends.Flash ~year:1993.0 ~budget in
  let disk_mb = Ssmc.Trends.capacity_affordable Ssmc.Trends.Disk ~year:1993.0 ~budget in
  Alcotest.(check bool) "flash ~20MB" true (flash_mb > 17.0 && flash_mb < 23.0);
  Alcotest.(check bool) "disk ~120MB" true (disk_mb > 100.0 && disk_mb < 140.0)

(* --- Lifetime ------------------------------------------------------------------- *)

let test_lifetime_arithmetic () =
  let base =
    {
      Ssmc.Lifetime.endurance = 100_000;
      total_sectors = 40_960;  (* 20MB of 512B sectors *)
      sector_bytes = 512;
      flash_write_bytes_per_day = 10 * 1024 * 1024 |> float_of_int;
      write_amplification = 1.0;
      wear_skew = 1.0;
    }
  in
  let y = Ssmc.Lifetime.years base in
  (* 100k * 40960 sectors / (20480 erases/day) = 200k days ~ 547 years. *)
  Alcotest.(check bool) "even wear outlives the machine" true (y > 100.0);
  let skewed = Ssmc.Lifetime.years { base with Ssmc.Lifetime.wear_skew = 100.0 } in
  Alcotest.(check (float 1e-6)) "skew divides lifetime" (y /. 100.0) skewed;
  let amplified = Ssmc.Lifetime.years { base with Ssmc.Lifetime.write_amplification = 2.0 } in
  Alcotest.(check (float 1e-6)) "amplification halves lifetime" (y /. 2.0) amplified;
  Alcotest.(check (float 0.0)) "idle disk lives forever" infinity
    (Ssmc.Lifetime.years { base with Ssmc.Lifetime.flash_write_bytes_per_day = 0.0 })

(* --- Machine end-to-end ------------------------------------------------------------ *)

let small_trace seed =
  Trace.Synth.generate
    { Trace.Workloads.engineering with Trace.Synth.population = 50 }
    ~rng:(Rng.create ~seed) ~duration:(Time.span_s 60.0)

let test_solid_state_machine_runs () =
  let trace = small_trace 11 in
  let machine = Ssmc.Machine.create (Ssmc.Config.solid_state ~flash_mb:8 ~dram_mb:2 ()) in
  Ssmc.Machine.preload machine trace.Trace.Synth.initial_files;
  let r = Ssmc.Machine.run machine trace.Trace.Synth.records in
  Alcotest.(check int) "no op errors" 0 r.Ssmc.Machine.op_errors;
  Alcotest.(check int) "all ops applied" (List.length trace.Trace.Synth.records)
    r.Ssmc.Machine.ops_applied;
  Alcotest.(check bool) "energy consumed" true (r.Ssmc.Machine.energy_j > 0.0);
  Alcotest.(check bool) "battery drained some" true
    (r.Ssmc.Machine.battery_fraction_left < 1.0);
  (match r.Ssmc.Machine.manager_stats with
  | Some stats ->
    Alcotest.(check bool) "some absorption" true
      (stats.Storage.Manager.write_reduction > 0.1)
  | None -> Alcotest.fail "manager stats expected");
  match r.Ssmc.Machine.lifetime_years with
  | Some y -> Alcotest.(check bool) "finite lifetime estimate" true (y > 0.0)
  | None -> Alcotest.fail "lifetime expected"

let test_conventional_machine_runs () =
  let trace = small_trace 12 in
  let machine = Ssmc.Machine.create (Ssmc.Config.conventional ~dram_mb:2 ()) in
  Ssmc.Machine.preload machine trace.Trace.Synth.initial_files;
  let r = Ssmc.Machine.run machine trace.Trace.Synth.records in
  Alcotest.(check int) "no op errors" 0 r.Ssmc.Machine.op_errors;
  Alcotest.(check bool) "no manager" true (r.Ssmc.Machine.manager_stats = None);
  Alcotest.(check bool) "disk present" true (Ssmc.Machine.disk machine <> None)

let test_solid_beats_conventional () =
  let trace = small_trace 13 in
  let run cfg =
    let m = Ssmc.Machine.create cfg in
    Ssmc.Machine.preload m trace.Trace.Synth.initial_files;
    Ssmc.Machine.run m trace.Trace.Synth.records
  in
  let solid = run (Ssmc.Config.solid_state ()) in
  let conv = run (Ssmc.Config.conventional ()) in
  Alcotest.(check bool) "solid-state writes faster" true
    (Stat.Summary.mean solid.Ssmc.Machine.write_latency
    < Stat.Summary.mean conv.Ssmc.Machine.write_latency);
  Alcotest.(check bool) "solid-state uses less energy" true
    (solid.Ssmc.Machine.energy_j < conv.Ssmc.Machine.energy_j)

let test_config_dollars () =
  let cfg = Ssmc.Config.solid_state ~dram_mb:4 ~flash_mb:20 () in
  (* 4 * 83.3 + 20 * 50 = 1333 *)
  Alcotest.(check bool) "plausible cost" true
    (Ssmc.Config.dollars cfg > 1200.0 && Ssmc.Config.dollars cfg < 1500.0)

(* --- Recovery ------------------------------------------------------------------------ *)

let test_recovery_outcomes () =
  let engine = Engine.create () in
  let flash = Device.Flash.create (Device.Flash.config ~size_bytes:(256 * 1024) ()) in
  let dram = Device.Dram.create ~size_bytes:Units.mib ~battery_backed:true () in
  let manager = Storage.Manager.create Storage.Manager.default_config ~engine ~flash ~dram in
  let b = Storage.Manager.alloc manager in
  ignore (Storage.Manager.write_block manager b);
  let battery = Device.Battery.create ~backup_joules:10.0 ~capacity_joules:100.0 () in
  let o = Ssmc.Recovery.power_failure ~manager ~battery ~dram_battery_backed:true in
  Alcotest.(check int) "dirty visible" 1 o.Ssmc.Recovery.dirty_blocks;
  Alcotest.(check int) "nothing lost on battery" 0 o.Ssmc.Recovery.lost_blocks;
  Alcotest.(check bool) "primary holds" true (o.Ssmc.Recovery.survived_by = `Primary_battery);
  Device.Battery.drain battery ~joules:105.0;
  let o2 = Ssmc.Recovery.power_failure ~manager ~battery ~dram_battery_backed:true in
  Alcotest.(check bool) "backup holds" true (o2.Ssmc.Recovery.survived_by = `Backup_battery);
  Device.Battery.drain battery ~joules:10.0;
  let o3 = Ssmc.Recovery.power_failure ~manager ~battery ~dram_battery_backed:true in
  Alcotest.(check int) "dirty data lost" 1 o3.Ssmc.Recovery.lost_blocks;
  let o4 = Ssmc.Recovery.power_failure ~manager ~battery ~dram_battery_backed:false in
  Alcotest.(check int) "no battery backing loses too" 1 o4.Ssmc.Recovery.lost_blocks

(* One survival rule, two entry points: [Recovery.power_failure] and a
   [Power_failure] injected into a machine both decide who keeps DRAM
   alive by [Recovery.survivor].  The table pins all six cases. *)
let test_power_failure_survivor_table () =
  let set_state battery = function
    | `Fresh -> ()
    | `On_backup -> Device.Battery.deplete_primary battery
    | `Exhausted ->
      Device.Battery.deplete_primary battery;
      Device.Battery.drain battery ~joules:(Device.Battery.backup_joules battery)
  in
  let name = function
    | `Primary_battery -> "primary"
    | `Backup_battery -> "backup"
    | `Parity -> "parity"
    | `Nothing -> "nothing"
  in
  List.iter
    (fun (backed, state, expected) ->
      let what = Printf.sprintf "backed=%b %s" backed in
      let battery = Device.Battery.create ~backup_joules:10.0 ~capacity_joules:100.0 () in
      set_state battery state;
      Alcotest.(check string) (what "survivor") (name expected)
        (name (Ssmc.Recovery.survivor ~battery ~dram_battery_backed:backed));
      let engine = Engine.create () in
      let flash = Device.Flash.create (Device.Flash.config ~size_bytes:(256 * 1024) ()) in
      let dram = Device.Dram.create ~size_bytes:Units.mib ~battery_backed:backed () in
      let manager =
        Storage.Manager.create Storage.Manager.default_config ~engine ~flash ~dram
      in
      let o = Ssmc.Recovery.power_failure ~manager ~battery ~dram_battery_backed:backed in
      Alcotest.(check string) (what "Recovery.power_failure") (name expected)
        (name o.Ssmc.Recovery.survived_by);
      let machine =
        Ssmc.Machine.create
          {
            (Ssmc.Config.solid_state ~flash_mb:2 ~seed:3 ()) with
            Ssmc.Config.battery_backed_dram = backed;
          }
      in
      set_state (Ssmc.Machine.battery machine) state;
      let o = Ssmc.Machine.inject_fault machine Fault.Power_failure in
      Alcotest.(check string) (what "Machine.inject_fault") (name expected)
        (name o.Ssmc.Machine.survived_by);
      Alcotest.(check bool) (what "cold restart") (expected = `Nothing)
        o.Ssmc.Machine.cold_restart)
    [
      (true, `Fresh, `Primary_battery);
      (true, `On_backup, `Backup_battery);
      (true, `Exhausted, `Nothing);
      (false, `Fresh, `Nothing);
      (false, `On_backup, `Nothing);
      (false, `Exhausted, `Nothing);
    ]

let test_holdup_days () =
  let dram = Device.Dram.create ~size_bytes:(4 * Units.mib) ~battery_backed:true () in
  let battery = Device.Battery.of_watt_hours ~backup_wh:0.5 10.0 in
  let h = Ssmc.Recovery.dram_holdup ~dram ~battery in
  (* 4MB at 0.5mW/MB = 2mW; 10Wh/2mW = 5000h ~ 208 days; backup 0.5Wh = 250h. *)
  Alcotest.(check bool) "primary holds many days" true (h.Ssmc.Recovery.primary_days > 30.0);
  Alcotest.(check bool) "backup holds many hours" true (h.Ssmc.Recovery.backup_hours > 10.0)

(* --- Sizing --------------------------------------------------------------------------- *)

let test_sizing_knee_logic () =
  let point ~fraction ~write_us =
    {
      Ssmc.Sizing.dram_fraction = fraction;
      dram_mb = 10.0 *. fraction;
      flash_mb = 10.0;
      buffer_mb = 1.0;
      mean_write_us = write_us;
      mean_read_us = 50.0;
      write_reduction = 0.4;
      energy_j = 1.0;
      lifetime_years = 10.0;
      permanent_capacity_mb = 5.0;
      out_of_space = false;
    }
  in
  let points =
    [
      point ~fraction:0.1 ~write_us:500.0;
      point ~fraction:0.2 ~write_us:55.0;
      point ~fraction:0.4 ~write_us:50.0;
      point ~fraction:0.6 ~write_us:49.0;
    ]
  in
  (match Ssmc.Sizing.knee points with
  | Some p ->
    Alcotest.(check (float 1e-9)) "knee at cheapest near-optimal" 0.2
      p.Ssmc.Sizing.dram_fraction
  | None -> Alcotest.fail "knee expected");
  Alcotest.(check bool) "empty points, no knee" true (Ssmc.Sizing.knee [] = None)

let test_sizing_knee_tolerance () =
  let point ?(out_of_space = false) ~fraction ~write_us () =
    {
      Ssmc.Sizing.dram_fraction = fraction;
      dram_mb = 10.0 *. fraction;
      flash_mb = 10.0;
      buffer_mb = 1.0;
      mean_write_us = write_us;
      mean_read_us = 50.0;
      write_reduction = 0.4;
      energy_j = 1.0;
      lifetime_years = 10.0;
      permanent_capacity_mb = 5.0;
      out_of_space;
    }
  in
  let fraction = function
    | Some p -> p.Ssmc.Sizing.dram_fraction
    | None -> Alcotest.fail "knee expected"
  in
  (* All points out of space: no viable configuration, no knee. *)
  let all_oos =
    [
      point ~out_of_space:true ~fraction:0.1 ~write_us:50.0 ();
      point ~out_of_space:true ~fraction:0.5 ~write_us:40.0 ();
    ]
  in
  Alcotest.(check bool) "all out of space, no knee" true (Ssmc.Sizing.knee all_oos = None);
  (* A single viable point is its own knee. *)
  let lone = point ~fraction:0.3 ~write_us:80.0 () in
  Alcotest.(check (float 1e-9)) "single point is the knee" 0.3
    (fraction (Ssmc.Sizing.knee [ lone ]));
  (* Equal write latencies: the knee prefers the smaller DRAM share. *)
  let tie =
    [
      point ~fraction:0.6 ~write_us:50.0 ();
      point ~fraction:0.2 ~write_us:50.0 ();
      point ~fraction:0.4 ~write_us:50.0 ();
    ]
  in
  Alcotest.(check (float 1e-9)) "tie breaks toward smaller DRAM share" 0.2
    (fraction (Ssmc.Sizing.knee tie));
  (* Tolerance widens or narrows the near-optimal band: 60us is within
     1.5x of the 45us optimum but outside the default 1.2x. *)
  let band =
    [
      point ~fraction:0.1 ~write_us:60.0 ();
      point ~fraction:0.3 ~write_us:52.0 ();
      point ~fraction:0.5 ~write_us:45.0 ();
    ]
  in
  Alcotest.(check (float 1e-9)) "default tolerance excludes 60us" 0.3
    (fraction (Ssmc.Sizing.knee band));
  Alcotest.(check (float 1e-9)) "tolerance 1.5 admits 60us" 0.1
    (fraction (Ssmc.Sizing.knee ~tolerance:1.5 band));
  Alcotest.(check (float 1e-9)) "tolerance 1.0 keeps only the optimum" 0.5
    (fraction (Ssmc.Sizing.knee ~tolerance:1.0 band));
  Alcotest.check_raises "tolerance below 1.0 rejected"
    (Invalid_argument "Sizing.knee: tolerance < 1.0") (fun () ->
      ignore (Ssmc.Sizing.knee ~tolerance:0.5 band))

let test_sizing_sweep_small () =
  (* A tiny sweep: just ensure it runs end-to-end and orders sanely. *)
  let points =
    Ssmc.Sizing.sweep ~budget_dollars:800.0 ~fractions:[ 0.1; 0.4 ]
      ~duration:(Time.span_s 30.0)
      ~profile:{ Trace.Workloads.pim with Trace.Synth.population = 30 }
      ()
  in
  Alcotest.(check int) "two points" 2 (List.length points);
  List.iter
    (fun p ->
      if not p.Ssmc.Sizing.out_of_space then begin
        Alcotest.(check bool) "dram+flash consume budget" true
          (p.Ssmc.Sizing.dram_mb > 0.0 && p.Ssmc.Sizing.flash_mb > 0.0)
      end)
    points

let suite =
  [
    Alcotest.test_case "trend anchors" `Quick test_trend_anchors;
    Alcotest.test_case "costs fall" `Quick test_costs_fall;
    Alcotest.test_case "flash/disk crossovers" `Quick test_flash_disk_crossover;
    Alcotest.test_case "large disks cross later" `Quick test_large_disks_cross_later;
    Alcotest.test_case "density crossover" `Quick test_density_crossover;
    Alcotest.test_case "capacity affordable" `Quick test_capacity_affordable;
    Alcotest.test_case "lifetime arithmetic" `Quick test_lifetime_arithmetic;
    Alcotest.test_case "solid-state machine" `Slow test_solid_state_machine_runs;
    Alcotest.test_case "conventional machine" `Slow test_conventional_machine_runs;
    Alcotest.test_case "solid beats conventional" `Slow test_solid_beats_conventional;
    Alcotest.test_case "config dollars" `Quick test_config_dollars;
    Alcotest.test_case "recovery outcomes" `Quick test_recovery_outcomes;
    Alcotest.test_case "power-failure survivor table" `Quick
      test_power_failure_survivor_table;
    Alcotest.test_case "holdup days" `Quick test_holdup_days;
    Alcotest.test_case "sizing knee" `Quick test_sizing_knee_logic;
    Alcotest.test_case "sizing knee tolerance" `Quick test_sizing_knee_tolerance;
    Alcotest.test_case "sizing sweep" `Slow test_sizing_sweep_small;
  ]
