(* E9 — Section 4: apportioning a fixed budget between DRAM and flash.
   Shape to reproduce: write latency falls steeply until the buffer covers
   the workload's writable working set, then flattens (the knee); beyond
   the knee extra DRAM buys little but costs flash capacity for permanent
   data; write-heavier workloads push the knee toward more DRAM. *)
open Sim

let table_for profile =
  let points =
    Ssmc.Sizing.sweep ~budget_dollars:1500.0
      ~duration:(Common.minutes 10.0)
      ~profile ()
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "budget split sweep, $1500, workload '%s'" profile.Trace.Synth.name)
      ~columns:
        [
          ("DRAM share", Table.Right);
          ("DRAM MB", Table.Right);
          ("flash MB", Table.Right);
          ("buffer MB", Table.Right);
          ("write us", Table.Right);
          ("read us", Table.Right);
          ("reduction", Table.Right);
          ("life (yr)", Table.Right);
          ("free for data MB", Table.Right);
        ]
  in
  List.iter
    (fun (p : Ssmc.Sizing.point) ->
      if p.Ssmc.Sizing.out_of_space then
        Table.add_row t
          [
            Table.cell_pct p.Ssmc.Sizing.dram_fraction;
            Table.cell_f p.Ssmc.Sizing.dram_mb;
            Table.cell_f p.Ssmc.Sizing.flash_mb;
            "-"; "out"; "of"; "space"; "-"; "-";
          ]
      else
        Table.add_row t
          [
            Table.cell_pct p.Ssmc.Sizing.dram_fraction;
            Table.cell_f p.Ssmc.Sizing.dram_mb;
            Table.cell_f p.Ssmc.Sizing.flash_mb;
            Printf.sprintf "%.2f" p.Ssmc.Sizing.buffer_mb;
            Common.cell_us p.Ssmc.Sizing.mean_write_us;
            Common.cell_us p.Ssmc.Sizing.mean_read_us;
            Table.cell_pct p.Ssmc.Sizing.write_reduction;
            (if Float.is_finite p.Ssmc.Sizing.lifetime_years then
               Printf.sprintf "%.1f" p.Ssmc.Sizing.lifetime_years
             else "inf");
            Table.cell_f p.Ssmc.Sizing.permanent_capacity_mb;
          ])
    points;
  Table.print t;
  Chart.print_bars ~title:"mean write latency vs DRAM share (log10 us)" ~unit:""
    (List.filter_map
       (fun (p : Ssmc.Sizing.point) ->
         if p.Ssmc.Sizing.out_of_space then None
         else
           Some
             ( Table.cell_pct p.Ssmc.Sizing.dram_fraction,
               Float.log10 (Float.max 1.0 p.Ssmc.Sizing.mean_write_us) ))
       points);
  (* Headline metrics for --json: every point's mean write latency plus
     the knee.  Deterministic at any --jobs, which the E9 row of --check
     asserts by comparing runs at jobs 1 and 2. *)
  List.iter
    (fun (p : Ssmc.Sizing.point) ->
      Common.put_metric
        (Printf.sprintf "e9_%s_write_us_%02d" profile.Trace.Synth.name
           (int_of_float (Float.round (100.0 *. p.Ssmc.Sizing.dram_fraction))))
        p.Ssmc.Sizing.mean_write_us)
    points;
  match Ssmc.Sizing.knee points with
  | Some knee ->
    Common.put_metric
      (Printf.sprintf "e9_%s_knee_fraction" profile.Trace.Synth.name)
      knee.Ssmc.Sizing.dram_fraction;
    Common.note "knee for '%s': %.0f%% of budget on DRAM (%.1fMB DRAM / %.1fMB flash)"
      profile.Trace.Synth.name
      (100.0 *. knee.Ssmc.Sizing.dram_fraction)
      knee.Ssmc.Sizing.dram_mb knee.Ssmc.Sizing.flash_mb
  | None ->
    Common.put_metric
      (Printf.sprintf "e9_%s_knee_fraction" profile.Trace.Synth.name)
      (-1.0);
    Common.note "no feasible split for '%s'" profile.Trace.Synth.name

let run () =
  Common.section "E9: sizing DRAM vs flash under a fixed budget (Section 4)";
  table_for Trace.Workloads.engineering;
  table_for Trace.Workloads.pim;
  Common.note
    "the knee tracks the writable working set: the paper's 'the answer depends on the workload'."
