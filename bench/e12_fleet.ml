(* E12 — fleet-scale simulation: the paper's subject is a *product line*
   of solid-state mobile computers, so this experiment asks the
   population-level questions a single-machine run cannot: across N
   heterogeneous devices (three hardware models, four workloads,
   per-device seeds), where do the wear and lifetime distributions sit,
   and what fraction of the fleet wears out within the support horizon?

   Mechanically it is also the scale benchmark: devices stream through
   [Ssmc.Fleet] in shards, so peak heap is O(shard x jobs) no matter how
   large N is (test_fleet.ml's "live heap flat in fleet size" holds this),
   and
   the whole report is byte-identical at any --jobs (pinned by the e12_*
   snapshot diff).  Every device also takes one random power event, so
   fleet aggregation composes with the E11 fault machinery. *)

open Sim

let devices = if Common.quick then 64 else 512
let shard = 32

let run () =
  Common.section "E12: fleet-scale simulation (heterogeneous devices)";
  let spec =
    Ssmc.Fleet.spec ~devices ~shard ~base_seed:1993
      ~duration:(Common.minutes 2.0) ~faults_per_device:1 ()
  in
  (* The fleet's own peak heap: compacted first, so what earlier
     experiments left behind is not counted, then sampled at every shard
     boundary and once at the end. *)
  Gc.compact ();
  let peak_words = ref 0 in
  let sample_heap () = peak_words := Int.max !peak_words (Gc.quick_stat ()).Gc.heap_words in
  let t0 = Unix.gettimeofday () in
  let r = Ssmc.Fleet.run ~on_shard:(fun ~done_devices:_ ~total:_ -> sample_heap ()) spec in
  let wall = Unix.gettimeofday () -. t0 in
  sample_heap ();
  Fmt.pr "@[<v>%a@]@." Ssmc.Fleet.pp_report r;
  let table =
    Table.create ~title:"fleet composition"
      ~columns:[ ("group", Table.Left); ("kind", Table.Left); ("devices", Table.Right) ]
  in
  List.iter
    (fun (name, n) -> Table.add_row table [ "variant"; name; string_of_int n ])
    r.Ssmc.Fleet.by_variant;
  List.iter
    (fun (name, n) -> Table.add_row table [ "workload"; name; string_of_int n ])
    r.Ssmc.Fleet.by_workload;
  Table.print table;
  let open Stat in
  let q sketch p =
    if Quantiles.count sketch = 0 then 0.0 else Quantiles.quantile sketch p
  in
  (* Deterministic headline metrics carry the e12_ prefix: pinned by the
     snapshot and compared across job counts by --check.  Wall-clock metrics
     carry the fleet_ prefix and are excluded from those diffs. *)
  Common.put_metric "e12_devices" (float_of_int r.Ssmc.Fleet.devices);
  Common.put_metric "e12_out_of_space" (float_of_int r.Ssmc.Fleet.out_of_space);
  Common.put_metric "e12_ops" (float_of_int r.Ssmc.Fleet.ops);
  Common.put_metric "e12_op_errors" (float_of_int r.Ssmc.Fleet.op_errors);
  Common.put_metric "e12_read_us_mean" (Summary.mean r.Ssmc.Fleet.read_us);
  Common.put_metric "e12_write_us_mean" (Summary.mean r.Ssmc.Fleet.write_us);
  Common.put_metric "e12_energy_j_mean" (Summary.mean r.Ssmc.Fleet.energy_j);
  Common.put_metric "e12_wear_p50" (q r.Ssmc.Fleet.wear_max_erases 0.5);
  Common.put_metric "e12_wear_p99" (q r.Ssmc.Fleet.wear_max_erases 0.99);
  Common.put_metric "e12_write_amp_mean" (Summary.mean r.Ssmc.Fleet.write_amp);
  Common.put_metric "e12_life_p50_years" (q r.Ssmc.Fleet.lifetime_years 0.5);
  Common.put_metric "e12_unbounded_lifetimes"
    (float_of_int r.Ssmc.Fleet.unbounded_lifetimes);
  Common.put_metric "e12_past_wearout_frac"
    (float_of_int r.Ssmc.Fleet.past_wearout /. float_of_int r.Ssmc.Fleet.devices);
  Common.put_metric "e12_faults" (float_of_int r.Ssmc.Fleet.faults);
  Common.put_metric "e12_cold_restarts" (float_of_int r.Ssmc.Fleet.cold_restarts);
  Common.put_metric "e12_blocks_lost" (float_of_int r.Ssmc.Fleet.blocks_lost);
  Common.put_metric "e12_files_damaged" (float_of_int r.Ssmc.Fleet.files_damaged);
  let heap_kw = !peak_words / 1000 in
  Common.put_metric "fleet_devices_per_s"
    (if wall > 0.0 then float_of_int devices /. wall else Float.infinity);
  Common.put_metric "fleet_wall_s" wall;
  Common.put_metric "fleet_peak_heap_kw" (float_of_int heap_kw);
  Common.put_metric "fleet_heap_kw_per_device"
    (float_of_int heap_kw /. float_of_int devices);
  Common.note "%d devices in %.1f s (%.1f devices/s), peak heap %d kwords"
    devices wall
    (if wall > 0.0 then float_of_int devices /. wall else Float.infinity)
    heap_kw;
  Common.note "wear p50/p99 %.0f/%.0f erases; %.1f%% of fleet past wear-out in %g y"
    (q r.Ssmc.Fleet.wear_max_erases 0.5)
    (q r.Ssmc.Fleet.wear_max_erases 0.99)
    (100.0 *. float_of_int r.Ssmc.Fleet.past_wearout /. float_of_int devices)
    spec.Ssmc.Fleet.wearout_horizon_years;
  Common.note
    "aggregates byte-identical at any --jobs and --fleet-shard (pinned by --check and \
     test_fleet.ml)"
