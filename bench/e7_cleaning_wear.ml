(* E7 — Section 3.3: garbage collection and wear leveling.
   Shape to reproduce: write amplification grows with flash utilization;
   cost-benefit victim selection beats greedy at high utilization under a
   skewed rewrite mix (the LFS result the paper leans on); wear-leveling
   policies order none < dynamic < static in erase-count evenness, evener
   wear extrapolates to proportionally longer device life, and without
   leveling an accelerated-endurance device starts retiring segments while
   a leveled one still has headroom. *)
open Sim

let make ?(buffer_blocks = 64) ?(segment_sectors = 32) ~flash_kib ~wear ~cleaner
    ~endurance () =
  let engine = Engine.create () in
  let flash =
    Device.Flash.create
      (Device.Flash.config ~nbanks:4 ~endurance_override:endurance
         ~size_bytes:(flash_kib * Units.kib) ())
  in
  let dram = Device.Dram.create ~size_bytes:(2 * Units.mib) ~battery_backed:true () in
  let cfg =
    {
      Storage.Manager.default_config with
      Storage.Manager.wear;
      cleaner;
      segment_sectors;
      buffer =
        {
          Storage.Write_buffer.capacity_blocks = buffer_blocks;
          writeback_delay = Time.span_s 1.0;
          refresh_on_rewrite = false;
        };
      max_flush_batch = 64;
      flush_spacing = Time.span_ms 20.0;
    }
  in
  (engine, Storage.Manager.create cfg ~engine ~flash ~dram)

(* Fill to [utilization], then rewrite.  Two patterns:
   - [`Zipf]: popularity-skewed rewrites over every block — the mixed-age,
     mixed-utilization regime segment cleaning faces (cleaner experiment);
   - [`Hot_cold]: 90% of the data is never written again (installed
     programs, archives) and pins its segments, while a small hot set takes
     all the writes — the regime that separates wear-leveling policies. *)
let churn ~engine ~manager ~utilization ~rounds ~writes_per_round ~pattern ~seed =
  let capacity = Storage.Manager.capacity_blocks manager in
  let live_target = int_of_float (float_of_int capacity *. utilization) in
  let blocks = Array.init live_target (fun _ -> Storage.Manager.alloc manager) in
  Array.iter (fun b -> Storage.Manager.load_cold manager b) blocks;
  Engine.run_until engine (Time.add (Engine.now engine) (Time.span_s 60.0));
  Storage.Manager.reset_traffic manager;
  let rng = Rng.create ~seed in
  let zipf = Distribution.Zipf.create ~n:live_target ~s:1.0 in
  let nhot = max 8 (live_target / 10) in
  let pick () =
    match pattern with
    | `Zipf -> blocks.(Distribution.Zipf.sample zipf rng)
    | `Hot_cold -> blocks.(Rng.int rng nhot)
  in
  for _ = 1 to rounds do
    for _ = 1 to writes_per_round do
      ignore (Storage.Manager.write_block manager (pick ()))
    done;
    Engine.run_until engine (Time.add (Engine.now engine) (Time.span_s 1.0))
  done;
  ignore (Storage.Manager.flush_all manager)

let rounds n = if Common.quick then n / 4 else n

(* The grids below are embarrassingly parallel: every cell builds its own
   engine, manager, and RNG from constants, so the cells run on the Domain
   pool and only the rendering stays sequential.  Cell order (hence output)
   is identical at any job count. *)

let cleaner_table () =
  let t =
    Table.create ~title:"cleaner policy vs flash utilization (zipf rewrites)"
      ~columns:
        [
          ("utilization", Table.Right);
          ("policy", Table.Left);
          ("write amplification", Table.Right);
          ("cleanings", Table.Right);
          ("blocks copied", Table.Right);
          ("max erases", Table.Right);
        ]
  in
  let utilizations = [ 0.70; 0.80; 0.90 ] in
  let policies = [ Storage.Cleaner.Greedy; Storage.Cleaner.Cost_benefit ] in
  (* Counters come from the probe registry: churn's reset_traffic clears
     this worker domain's probes after the fill phase, so the snapshot
     taken inside the work item holds exactly this cell's rewrite traffic
     (identical values to Manager.stats — the QUICK snapshot pins them). *)
  let cells =
    Pool.run_map
      (fun (utilization, cleaner) ->
        let engine, manager =
          make ~flash_kib:1024 ~wear:Storage.Wear.Dynamic ~cleaner
            ~endurance:1_000_000 ()
        in
        churn ~engine ~manager ~utilization ~rounds:(rounds 400) ~writes_per_round:128
          ~pattern:`Zipf ~seed:71;
        (utilization, cleaner, Probe.snapshot (),
         Storage.Manager.wear_evenness manager))
      (List.concat_map
         (fun u -> List.map (fun c -> (u, c)) policies)
         utilizations)
  in
  List.iteri
    (fun i (utilization, cleaner, snap, e) ->
      let c name = Probe.Snapshot.counter_value snap name in
      let flushed = c "storage.manager.blocks_flushed" in
      let cleaned = c "storage.manager.blocks_cleaned" in
      let wa =
        Storage.Cleaner.write_amplification
          ~blocks_written:(flushed + cleaned) ~blocks_flushed:flushed
      in
      let tag =
        Printf.sprintf "u%d_%s"
          (int_of_float (100.0 *. utilization))
          (Storage.Cleaner.policy_name cleaner)
      in
      Common.put_metric ("e7_wa_" ^ tag) wa;
      Common.put_metric ("e7_cleanings_" ^ tag)
        (float_of_int (c "storage.manager.clean_ops"));
      Common.put_metric ("e7_max_erases_" ^ tag)
        (float_of_int e.Storage.Wear.max_erases);
      Table.add_row t
        [
          Table.cell_pct utilization;
          Storage.Cleaner.policy_name cleaner;
          Printf.sprintf "%.3f" wa;
          Table.cell_i (c "storage.manager.clean_ops");
          Table.cell_i cleaned;
          Table.cell_i e.Storage.Wear.max_erases;
        ];
      if (i + 1) mod List.length policies = 0 then Table.add_rule t)
    cells;
  Table.print t

let wear_table () =
  let t =
    Table.create ~title:"wear-leveling policy (85% full, pinned cold + hot set, 512KB flash)"
      ~columns:
        [
          ("policy", Table.Left);
          ("min erases", Table.Right);
          ("max erases", Table.Right);
          ("stddev", Table.Right);
          ("skew (max/mean)", Table.Right);
          ("relative lifetime", Table.Right);
        ]
  in
  let cells =
    Pool.run_map
      (fun wear ->
        let engine, manager =
          make ~flash_kib:512 ~wear ~cleaner:Storage.Cleaner.Cost_benefit
            ~endurance:1_000_000 ()
        in
        churn ~engine ~manager ~utilization:0.85 ~rounds:(rounds 600)
          ~writes_per_round:96 ~pattern:`Hot_cold ~seed:72;
        let e = Storage.Manager.wear_evenness manager in
        let stats = Storage.Manager.stats manager in
        let flash = Storage.Manager.flash manager in
        let elapsed = Time.diff (Engine.now engine) Time.zero in
        (wear, e, Ssmc.Lifetime.of_run ~flash ~stats ~evenness:e ~elapsed))
      [ Storage.Wear.None_; Storage.Wear.Dynamic;
        Storage.Wear.Static { spread_threshold = 12 } ]
  in
  let baseline =
    match cells with (_, _, lifetime) :: _ -> lifetime | [] -> assert false
  in
  List.iter
    (fun (wear, e, lifetime) ->
      let tag = Storage.Wear.policy_name wear in
      Common.put_metric ("e7_even_min_" ^ tag) (float_of_int e.Storage.Wear.min_erases);
      Common.put_metric ("e7_even_max_" ^ tag) (float_of_int e.Storage.Wear.max_erases);
      Common.put_metric ("e7_even_stddev_" ^ tag) e.Storage.Wear.stddev_erases;
      Common.put_metric ("e7_life_rel_" ^ tag) (lifetime /. baseline);
      Table.add_row t
        [
          Storage.Wear.policy_name wear;
          Table.cell_i e.Storage.Wear.min_erases;
          Table.cell_i e.Storage.Wear.max_erases;
          Printf.sprintf "%.1f" e.Storage.Wear.stddev_erases;
          Printf.sprintf "%.2f"
            (float_of_int e.Storage.Wear.max_erases
            /. Float.max 1e-9 e.Storage.Wear.mean_erases);
          Printf.sprintf "%.2fx" (lifetime /. baseline);
        ])
    cells;
  Table.print t

let wearout_demo () =
  (* Accelerated endurance: run each device to death (out of space from
     retired segments) and compare how much writing it sustained. *)
  let endurance = if Common.quick then 50 else 120 in
  let threshold = endurance / 10 in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "write until wear-out (endurance = %d cycles, 256KB flash, 80%% full)" endurance)
      ~columns:
        [
          ("policy", Table.Left);
          ("data written before death", Table.Right);
          ("relative life", Table.Right);
          ("retired segments", Table.Right);
          ("bad sectors", Table.Right);
        ]
  in
  let cells =
    Pool.run_map
      (fun wear ->
        let engine, manager =
          make ~buffer_blocks:8 ~flash_kib:256 ~wear
            ~cleaner:Storage.Cleaner.Cost_benefit ~endurance ()
        in
        (try
           churn ~engine ~manager ~utilization:0.8 ~rounds:100_000 ~writes_per_round:96
             ~pattern:`Hot_cold ~seed:73
         with Storage.Manager.Out_of_space -> ());
        (wear, Storage.Manager.stats manager,
         Device.Flash.bad_sectors (Storage.Manager.flash manager)))
      [ Storage.Wear.None_; Storage.Wear.Dynamic;
        Storage.Wear.Static { spread_threshold = threshold } ]
  in
  let baseline =
    match cells with
    | (_, stats, _) :: _ -> float_of_int (512 * stats.Storage.Manager.blocks_flushed)
    | [] -> assert false
  in
  List.iter
    (fun (wear, stats, bad_sectors) ->
      let written = float_of_int (512 * stats.Storage.Manager.blocks_flushed) in
      let tag = Storage.Wear.policy_name wear in
      Common.put_metric ("e7_wearout_flushed_" ^ tag)
        (float_of_int stats.Storage.Manager.blocks_flushed);
      Common.put_metric ("e7_wearout_retired_" ^ tag)
        (float_of_int stats.Storage.Manager.retired_segments);
      Table.add_row t
        [
          Storage.Wear.policy_name wear;
          Table.cell_bytes (512 * stats.Storage.Manager.blocks_flushed);
          Printf.sprintf "%.2fx" (written /. baseline);
          Table.cell_i stats.Storage.Manager.retired_segments;
          Table.cell_i bad_sectors;
        ])
    cells;
  Table.print t

let segment_size_table () =
  (* The cleaning/erase unit itself: small segments approximate the
     paper's 512B-sector flash (cheap, surgical cleaning); large ones
     model the big erase blocks later NAND standardized on (better
     bandwidth, more copying per cleaning). *)
  let t =
    Table.create ~title:"segment (erase-unit) size at 75% utilization"
      ~columns:
        [
          ("segment", Table.Right);
          ("write amplification", Table.Right);
          ("cleanings", Table.Right);
          ("erases", Table.Right);
          ("bank busy per cleaning", Table.Right);
        ]
  in
  let cells =
    Pool.run_map
      (fun segment_sectors ->
        let engine, manager =
          make ~segment_sectors ~flash_kib:2048 ~wear:Storage.Wear.Dynamic
            ~cleaner:Storage.Cleaner.Cost_benefit ~endurance:1_000_000 ()
        in
        churn ~engine ~manager ~utilization:0.75 ~rounds:(rounds 200)
          ~writes_per_round:128 ~pattern:`Zipf ~seed:74;
        (segment_sectors, Storage.Manager.stats manager,
         Device.Flash.erases (Storage.Manager.flash manager)))
      [ 8; 32; 128 ]
  in
  List.iter
    (fun (segment_sectors, stats, erases) ->
      (* A cleaning erases the whole victim: that long, uninterruptible
         bank occupancy is what a concurrent reader of the same bank eats. *)
      let erase_burst =
        Time.span_scale (Device.Specs.intel_flash.Device.Specs.f_erase)
          (float_of_int segment_sectors)
      in
      Common.put_metric
        (Printf.sprintf "e7_segsize_wa_%d" segment_sectors)
        stats.Storage.Manager.write_amplification;
      Table.add_row t
        [
          Table.cell_bytes (segment_sectors * 512);
          Printf.sprintf "%.3f" stats.Storage.Manager.write_amplification;
          Table.cell_i stats.Storage.Manager.cleanings;
          Table.cell_i erases;
          Table.cell_span erase_burst;
        ])
    cells;
  Table.print t

let run () =
  Common.section "E7: garbage collection and wear leveling (Section 3.3)";
  cleaner_table ();
  wear_table ();
  wearout_demo ();
  segment_size_table ()
