(* E10 — Section 2's power argument: "flash memory offers significant
   power savings over disk drives, thus prolonging battery life", and
   robustness: no moving parts.
   Shape to reproduce: on a light, bursty mobile workload the solid-state
   machine's storage energy is dominated by milliwatt-level standby draw;
   the disk machine pays watts while spinning, and spin-down recovers much
   of it only at the cost of multi-second spin-up latency on the first
   access after an idle period. *)
open Sim

let projected_battery_hours ~energy_j ~elapsed ~battery_wh =
  let draw_w = energy_j /. Time.span_to_s elapsed in
  battery_wh *. 3600.0 /. draw_w /. 3600.0

let rec run () =
  Common.section "E10: storage power and battery life (Section 2)";
  let duration = Common.minutes 30.0 in
  let battery_wh = 10.0 in
  let t =
    Table.create ~title:"pim workload: storage energy and projected battery life"
      ~columns:
        [
          ("machine", Table.Left);
          ("storage energy (J)", Table.Right);
          ("avg storage draw (mW)", Table.Right);
          ("battery life (h, 10Wh, storage only)", Table.Right);
          ("read p99 (us)", Table.Right);
          ("spin-ups", Table.Right);
        ]
  in
  let row name cfg =
    let machine, r =
      Common.run_machine ~seed:101 ~cfg ~profile:Trace.Workloads.pim ~duration ()
    in
    let draw_mw = 1000.0 *. r.Ssmc.Machine.energy_j /. Time.span_to_s r.Ssmc.Machine.elapsed in
    Table.add_row t
      [
        name;
        Table.cell_f r.Ssmc.Machine.energy_j;
        Table.cell_f draw_mw;
        Printf.sprintf "%.0f"
          (projected_battery_hours ~energy_j:r.Ssmc.Machine.energy_j
             ~elapsed:r.Ssmc.Machine.elapsed ~battery_wh);
        Common.cell_us (Common.p99 r.Ssmc.Machine.read_hist_us);
        (match Ssmc.Machine.disk machine with
        | Some d -> Table.cell_i (Device.Disk.spin_ups d)
        | None -> "-");
      ]
  in
  row "solid-state (DRAM + flash)" (Ssmc.Config.solid_state ~seed:101 ());
  row "conventional, disk never spins down"
    (Ssmc.Config.conventional ~spindown_timeout:(Time.span_s 1e9) ~seed:101 ());
  row "conventional, 10s spin-down"
    (Ssmc.Config.conventional ~spindown_timeout:(Time.span_s 10.0) ~seed:101 ());
  row "conventional, 2s spin-down"
    (Ssmc.Config.conventional ~spindown_timeout:(Time.span_s 2.0) ~seed:101 ());
  Table.print t;
  Common.note
    "at this access rate the disk rarely idles past its timeout, so spin-down recovers \
     little energy while the aggressive setting pays a ~1s spin-up in the read tail; \
     the solid-state machine needs no such bargain.";
  Common.note
    "storage-only figures: the rest of the machine (CPU, display) draws the same either way.";
  recovery_table ()

(* What total power loss costs: the DRAM block map and write buffer are
   gone; a remount rebuilds the map by scanning flash sector headers.
   Battery-backed DRAM (primary for days, lithium backup for hours) exists
   so this path is almost never taken. *)
and recovery_table () =
  let t =
    Table.create ~title:"recovery after total power loss (remount scan of flash)"
      ~columns:
        [
          ("flash size", Table.Right);
          ("scan time", Table.Right);
          ("blocks recovered", Table.Right);
          ("dirty blocks lost", Table.Right);
        ]
  in
  List.iter
    (fun flash_mb ->
      let engine = Engine.create () in
      let flash =
        Device.Flash.create
          (Device.Flash.config ~nbanks:4 ~size_bytes:(flash_mb * Units.mib) ())
      in
      let dram = Device.Dram.create ~size_bytes:(4 * Units.mib) ~battery_backed:true () in
      let manager =
        Storage.Manager.create Storage.Manager.default_config ~engine ~flash ~dram
      in
      (* Fill a third of the device with data, leave a little dirty. *)
      let nblocks = Storage.Manager.capacity_blocks manager / 3 in
      for _ = 1 to nblocks do
        let b = Storage.Manager.alloc manager in
        Storage.Manager.load_cold manager b
      done;
      (* Let the preload drain every bank, then dirty a few blocks and pull
         the plug before their writeback deadline. *)
      let busy = ref (Engine.now engine) in
      for bank = 0 to Device.Flash.nbanks flash - 1 do
        busy := Time.max !busy (Device.Flash.bank_busy_until flash ~bank)
      done;
      Engine.run_until engine (Time.add !busy (Time.span_s 2.0));
      for _ = 1 to 32 do
        let b = Storage.Manager.alloc manager in
        ignore (Storage.Manager.write_block manager b)
      done;
      let _fresh, scan, report = Storage.Manager.crash_and_remount manager in
      let metric what v =
        Common.put_metric (Printf.sprintf "e10_remount_%s_%dmb" what flash_mb) v
      in
      metric "scan_ms" (Time.span_to_ms scan);
      metric "recovered" (float_of_int report.Storage.Manager.live_recovered);
      metric "lost" (float_of_int report.Storage.Manager.buffered_lost);
      Table.add_row t
        [
          Table.cell_bytes (flash_mb * Units.mib);
          Table.cell_span scan;
          Table.cell_i report.Storage.Manager.live_recovered;
          Table.cell_i report.Storage.Manager.buffered_lost;
        ])
    [ 10; 20; 40 ];
  Table.print t;
  Common.note
    "with batteries holding DRAM, reboot is instant and nothing is lost; the scan is the \
     price of the no-battery path only."
