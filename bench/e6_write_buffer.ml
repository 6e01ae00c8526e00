(* E6 — Section 3.3's headline number: "as little as one megabyte of
   battery-backed RAM can reduce write traffic by 40 to 50%" (Baker et
   al.).  Shape to reproduce: the reduction climbs steeply to the 40-50%
   band around 1MB of buffer on a Sprite-calibrated workload, then
   flattens; a longer writeback delay absorbs more; cancelling deleted
   data (short-lived files) is a large share of the savings.

   Every reduction is recorded as an [e6_reduction_*] metric, plus
   [e6_refresh_gain]: what restarting a block's deadline on rewrite (how
   hot blocks stay in DRAM) adds at 1MB.  [main.exe --check] pins them. *)
open Sim

let buffer_config ~capacity_bytes ~delay_s ~refresh =
  {
    Storage.Write_buffer.capacity_blocks = capacity_bytes / 512;
    writeback_delay = Time.span_s delay_s;
    refresh_on_rewrite = refresh;
  }

(* Counters come from the probe registry rather than the manager's private
   stats record: preload resets both through the same chokepoint, so the
   snapshot taken right after the replay is exactly this run's traffic. *)
let run_with ?flush_watermark ~buffer ~seed ~duration () =
  let manager_cfg =
    { Storage.Manager.default_config with Storage.Manager.buffer; flush_watermark }
  in
  let cfg = Ssmc.Config.solid_state ~flash_mb:24 ~dram_mb:16 ~manager:manager_cfg ~seed () in
  let _m, result =
    Common.run_machine ~seed ~cfg ~profile:Trace.Workloads.engineering ~duration ()
  in
  (result, Probe.snapshot ())

let reduction snap =
  let writes = Probe.Snapshot.counter_value snap "storage.manager.client_writes" in
  let flushed = Probe.Snapshot.counter_value snap "storage.manager.blocks_flushed" in
  if writes = 0 then 0.0
  else 1.0 -. (float_of_int flushed /. float_of_int writes)

let row_of ~label ((result : Ssmc.Machine.result), snap) =
  let c name = Probe.Snapshot.counter_value snap name in
  [
    label;
    Table.cell_bytes (512 * c "storage.manager.client_writes");
    Table.cell_bytes (512 * c "storage.manager.blocks_flushed");
    Table.cell_pct (reduction snap);
    Table.cell_i (c "storage.write_buffer.absorbed");
    Table.cell_i (c "storage.write_buffer.cancelled");
    Common.cell_us (Stat.Summary.mean result.Ssmc.Machine.write_latency);
    (match result.Ssmc.Machine.lifetime_years with
    | Some y when Float.is_finite y -> Printf.sprintf "%.1f" y
    | _ -> "inf");
  ]

let columns =
  [
    ("configuration", Table.Left);
    ("written", Table.Right);
    ("to flash", Table.Right);
    ("reduction", Table.Right);
    ("absorbed", Table.Right);
    ("cancelled", Table.Right);
    ("write us", Table.Right);
    ("life (yr)", Table.Right);
  ]

let run () =
  Common.section "E6: DRAM write buffer vs flash write traffic (Section 3.3)";
  let duration = Common.minutes 20.0 in
  let t = Table.create ~title:"buffer size sweep (30s writeback delay)" ~columns in
  let curve = ref [] in
  List.iter
    (fun kib ->
      let buffer =
        buffer_config ~capacity_bytes:(kib * 1024) ~delay_s:30.0 ~refresh:true
      in
      let run = run_with ~buffer ~seed:61 ~duration () in
      let r = reduction (snd run) in
      Common.put_metric (Printf.sprintf "e6_reduction_%dk" kib) r;
      curve := (Table.cell_bytes (kib * 1024), 100.0 *. r) :: !curve;
      Table.add_row t (row_of ~label:(Table.cell_bytes (kib * 1024)) run))
    [ 0; 128; 256; 512; 1024; 2048; 4096; 8192 ];
  Table.print t;
  Chart.print_bars ~title:"write-traffic reduction vs buffer size" ~unit:"%"
    (List.rev !curve);

  (* What fraction of written bytes dies within the delay window at all —
     the theoretical ceiling from the trace itself. *)
  let trace =
    Trace.Synth.generate Trace.Workloads.engineering ~rng:(Rng.create ~seed:61) ~duration
  in
  let death = Trace.Stats.write_death trace.Trace.Synth.records ~window:(Time.span_s 30.0) in
  Common.note "workload ceiling: %.1f%% of written bytes die within 30s (Baker: ~50%%)"
    (100.0 *. death.Trace.Stats.dead_fraction);

  let t2 = Table.create ~title:"ablations at 1MB of buffer" ~columns in
  let ablations =
    List.map
      (fun (label, tag, delay_s, refresh, flush_watermark) ->
        let buffer = buffer_config ~capacity_bytes:Units.mib ~delay_s ~refresh in
        let run = run_with ?flush_watermark ~buffer ~seed:61 ~duration () in
        Table.add_row t2 (row_of ~label run);
        let r = reduction (snd run) in
        Common.put_metric ("e6_reduction_" ^ tag) r;
        (tag, r))
      [
        ("5s delay", "delay5s", 5.0, true, None);
        ("30s delay (default)", "delay30s", 30.0, true, None);
        ("120s delay", "delay120s", 120.0, true, None);
        ("30s, no deadline refresh", "norefresh", 30.0, false, None);
        (* Flush-policy ablation: capacity-threshold flushing on top of
           the deadline. *)
        ("30s + flush at 50% full", "watermark50", 30.0, true, Some 0.5);
        ("30s + flush at 80% full", "watermark80", 30.0, true, Some 0.8);
      ]
  in
  Common.put_metric "e6_refresh_gain"
    (List.assoc "delay30s" ablations -. List.assoc "norefresh" ablations);
  Table.print t2;

  let t3 = Table.create ~title:"1MB buffer across workloads" ~columns in
  List.iter
    (fun profile ->
      let manager_cfg =
        { Storage.Manager.default_config with
          Storage.Manager.buffer = buffer_config ~capacity_bytes:Units.mib ~delay_s:30.0 ~refresh:true }
      in
      let cfg = Ssmc.Config.solid_state ~flash_mb:24 ~dram_mb:16 ~manager:manager_cfg ~seed:62 () in
      let _m, result = Common.run_machine ~seed:62 ~cfg ~profile ~duration () in
      let snap = Probe.snapshot () in
      Common.put_metric ("e6_reduction_" ^ profile.Trace.Synth.name) (reduction snap);
      Table.add_row t3 (row_of ~label:profile.Trace.Synth.name (result, snap)))
    Trace.Workloads.all;
  Table.print t3
