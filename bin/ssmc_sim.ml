(* ssmc_sim: run a workload against a simulated mobile computer.

     dune exec bin/ssmc_sim.exe -- --workload engineering --minutes 10
     dune exec bin/ssmc_sim.exe -- --machine conventional --workload pim
     dune exec bin/ssmc_sim.exe -- --trace mytrace.txt *)
open Sim
open Cmdliner

(* Fleet mode: N heterogeneous devices streamed through the pool in
   bounded memory (Ssmc.Fleet).  Prints the fleet report plus one
   machine-parsable line: devices/s and the process's peak heap. *)
let run_fleet ~devices ~shard ~faults_per_device ~duration ~seed ~metrics_json
    ~verbose =
  let spec =
    Ssmc.Fleet.spec ~devices ~shard ~base_seed:seed ~duration
      ~faults_per_device ()
  in
  (match Ssmc.Fleet.validate spec with
  | Ok () -> ()
  | Error m ->
    Fmt.epr "--fleet: %s@." m;
    exit 2);
  let t0 = Unix.gettimeofday () in
  let on_shard ~done_devices ~total =
    if verbose then Fmt.epr "fleet: %d/%d devices@." done_devices total
  in
  let report = Ssmc.Fleet.run ~on_shard spec in
  let wall = Unix.gettimeofday () -. t0 in
  Fmt.pr "@[<v>%a@]@." Ssmc.Fleet.pp_report report;
  (match metrics_json with
  | None -> ()
  | Some path ->
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc
          (Json.to_string
             (Json.Obj
                [
                  ("devices", Json.int report.Ssmc.Fleet.devices);
                  ("metrics", Probe.Snapshot.to_json report.Ssmc.Fleet.probes);
                ]));
        Out_channel.output_char oc '\n');
    Fmt.pr "wrote metrics JSON to %s@." path);
  let peak_heap_kw = (Gc.quick_stat ()).Gc.top_heap_words / 1000 in
  Fmt.pr "fleet-wall: devices_per_s=%.2f wall_s=%.2f peak_heap_kw=%d@."
    (if wall > 0.0 then float_of_int devices /. wall else Float.infinity)
    wall peak_heap_kw

let run_simulation machine_kind workload trace_file minutes seed flash_mb dram_mb
    buffer_kb nbanks cards strip_size parity diff_log partitioned wear backup_wh jobs
    replicate metrics_json trace_out fault_after fault_kind fleet fleet_shard
    fleet_faults verbose debug =
  if debug then begin
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (Some Logs.Debug)
  end;
  if cards < 1 then begin
    Fmt.epr "--cards needs a positive count, got %d@." cards;
    exit 2
  end;
  if strip_size < 1 then begin
    Fmt.epr "--strip-size needs a positive block count, got %d@." strip_size;
    exit 2
  end;
  if cards > 1 && machine_kind = `Conventional then begin
    Fmt.epr "--cards requires the solid-state machine@.";
    exit 2
  end;
  if parity && cards < 2 then begin
    Fmt.epr "--parity needs at least 2 cards (one data + one parity)@.";
    exit 2
  end;
  (match jobs with
  | Some j when j < 1 ->
    Fmt.epr "--jobs needs a positive count@.";
    exit 2
  | _ -> Option.iter Pool.set_default_jobs jobs);
  if replicate < 1 then begin
    Fmt.epr "--replicate needs a positive count@.";
    exit 2
  end;
  if fault_after <> [] && machine_kind = `Conventional then begin
    Fmt.epr "--fault-after requires the solid-state machine@.";
    exit 2
  end;
  (match List.find_opt (fun s -> s < 0.0) fault_after with
  | Some s ->
    Fmt.epr "--fault-after needs a non-negative time, got %g@." s;
    exit 2
  | None -> ());
  if backup_wh < 0.0 then begin
    Fmt.epr "--backup-wh needs a non-negative capacity, got %g@." backup_wh;
    exit 2
  end;
  (* Multi-card runs read the per-card busy/traffic labels back out of the
     probe registry for the utilization table below, so metrics go on. *)
  Probe.set_metrics (metrics_json <> None || trace_out <> None || cards > 1);
  Probe.set_timeline (trace_out <> None);
  (match fleet with
  | Some devices ->
    if devices < 1 then begin
      Fmt.epr "--fleet needs a positive device count@.";
      exit 2
    end;
    if fleet_shard < 1 then begin
      Fmt.epr "--fleet-shard needs a positive count@.";
      exit 2
    end;
    if fleet_faults < 0 then begin
      Fmt.epr "--fleet-faults needs a non-negative count@.";
      exit 2
    end;
    run_fleet ~devices ~shard:fleet_shard ~faults_per_device:fleet_faults
      ~duration:(Time.span_s (60.0 *. minutes))
      ~seed ~metrics_json ~verbose;
    exit 0
  | None -> ());
  let faults =
    List.map
      (fun s -> { Fault.kind = fault_kind; after = Time.span_s s })
      fault_after
  in
  let profile =
    match Trace.Workloads.find workload with
    | Some p -> p
    | None ->
      Fmt.epr "unknown workload %S; available: %a@." workload
        Fmt.(list ~sep:comma string)
        (List.map (fun p -> p.Trace.Synth.name) Trace.Workloads.all);
      exit 2
  in
  let duration = Time.span_s (60.0 *. minutes) in
  (* Two streaming passes, so the trace never has to fit in memory: the
     first validates and computes the preload set and summary, the second
     drives the machine.  A generated workload is simply regenerated for
     the second pass — generation is deterministic in the seed. *)
  (* [setup ~seed] yields that seed's preload set and replay function, so a
     single run and a multi-seed replication share one code path.  For a
     trace file the records are fixed and every replica re-reads the file
     (each on its own channel); a generated workload is regenerated per
     seed — generation is deterministic in the seed. *)
  let summary, setup =
    match trace_file with
    | Some path ->
      let inits = ref [] in
      let summary =
        try
          In_channel.with_open_text path (fun ic ->
              Trace.Stats.summarize_seq
                (Trace.Format_io.read_seq
                   ~on_init:(fun (file, size) -> inits := (file, size) :: !inits)
                   ic))
        with Failure msg | Sys_error msg ->
          Fmt.epr "cannot read trace %s: %s@." path msg;
          exit 2
      in
      let initial_files = List.rev !inits in
      ( summary,
        fun ~seed:_ ->
          ( initial_files,
            fun machine ->
              In_channel.with_open_text path (fun ic ->
                  Ssmc.Machine.run_seq ~faults machine (Trace.Format_io.read_seq ic)) ) )
    | None ->
      let stream ~seed =
        Trace.Synth.generate_seq profile ~rng:(Rng.create ~seed) ~duration
      in
      let summary = Trace.Stats.summarize_seq (stream ~seed).Trace.Synth.seq in
      ( summary,
        fun ~seed ->
          ( (stream ~seed).Trace.Synth.stream_initial_files,
            fun machine ->
              Ssmc.Machine.run_seq ~faults machine (stream ~seed).Trace.Synth.seq ) )
  in
  let cfg_for seed =
    match machine_kind with
    | `Solid_state ->
      let banking =
        if partitioned then Storage.Banks.Partitioned { write_banks = 1 }
        else Storage.Banks.Unified
      in
      let manager =
        {
          Storage.Manager.default_config with
          Storage.Manager.banking;
          wear;
          buffer =
            {
              Storage.Write_buffer.default_config with
              Storage.Write_buffer.capacity_blocks = buffer_kb * 1024 / 512;
            };
          diff_log =
            (if diff_log then Some Storage.Diff_log.default_config else None);
        }
      in
      let striping =
        if parity then
          Storage.Striping.Parity { strip_blocks = strip_size; rotate = true }
        else Storage.Striping.Round_robin { strip_blocks = strip_size }
      in
      Ssmc.Config.solid_state ~flash_mb ~dram_mb ~nbanks ~manager ~cards ~striping
        ~backup_wh ~seed ()
    | `Conventional -> Ssmc.Config.conventional ~dram_mb ~seed ()
  in
  (* Per-replica probe capture.  Machine.preload resets this domain's probe
     state, and a pool worker runs its items sequentially, so the snapshot
     taken right after replay holds exactly this replica's activity — at
     any --jobs.  Captures land in a mutex-guarded table and are merged in
     seed order at the end, so the totals are job-count invariant. *)
  let captures_mu = Mutex.create () in
  let metric_snaps = ref [] in
  let trace_events = ref [] in
  let capturing = metrics_json <> None || trace_out <> None in
  let run_one ~seed:run_seed =
    let machine = Ssmc.Machine.create (cfg_for run_seed) in
    let initial_files, replay = setup ~seed:run_seed in
    Ssmc.Machine.preload machine initial_files;
    let result = replay machine in
    if capturing then begin
      let snap = Probe.snapshot () in
      (* The timeline is reported for the base seed only: replicas replay
         the same workload shape, and one coherent timeline is what a
         Perfetto view needs. *)
      let events =
        if trace_out <> None && run_seed = seed then Probe.Timeline.events ()
        else []
      in
      Mutex.lock captures_mu;
      metric_snaps := (run_seed, snap) :: !metric_snaps;
      if events <> [] then trace_events := events;
      Mutex.unlock captures_mu
    end;
    (machine, result)
  in
  let write_json_file path doc =
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (Json.to_string doc);
        Out_channel.output_char oc '\n')
  in
  let emit_captures () =
    (match metrics_json with
    | None -> ()
    | Some path ->
      let snaps =
        List.sort (fun (a, _) (b, _) -> compare a b) !metric_snaps
      in
      let merged =
        List.fold_left
          (fun acc (_, s) -> Probe.Snapshot.merge acc s)
          Probe.Snapshot.empty snaps
      in
      let doc =
        Json.Obj
          [
            ("seeds", Json.List (List.map (fun (s, _) -> Json.int s) snaps));
            ("metrics", Probe.Snapshot.to_json merged);
          ]
      in
      write_json_file path doc;
      Fmt.pr "wrote metrics JSON to %s@." path);
    match trace_out with
    | None -> ()
    | Some path ->
      write_json_file path (Probe.Timeline.to_chrome_json !trace_events);
      Fmt.pr "wrote Chrome trace (%d events) to %s@."
        (List.length !trace_events) path
  in
  Fmt.pr "machine: %s | workload: %s (%a)@."
    (match machine_kind with `Solid_state -> "solid-state" | `Conventional -> "conventional")
    workload Trace.Stats.pp_summary summary;
  if replicate = 1 then begin
    let machine, result = run_one ~seed in
    Fmt.pr "%a@." Ssmc.Machine.pp_result result;
    (match result.Ssmc.Machine.manager_stats with
    | Some stats when verbose ->
      Fmt.pr "storage manager: %a@." Storage.Manager.pp_stats stats
    | Some stats ->
      Fmt.pr "write traffic reduced by %.1f%%; flash lifetime estimate: %s@."
        (100.0 *. stats.Storage.Manager.write_reduction)
        (match result.Ssmc.Machine.lifetime_years with
        | Some y when Float.is_finite y -> Printf.sprintf "%.1f years" y
        | _ -> "unbounded")
    | None -> ());
    (match Ssmc.Machine.store machine with
    | Some store -> (
      match Storage.Store.diff_stats store with
      | Some d ->
        Fmt.pr
          "diff log: %d deltas (%d bytes) flushed, %d merges, %d reassembled \
           reads, %d live chains@."
          d.Storage.Diff_log.deltas_flushed d.Storage.Diff_log.delta_bytes_flushed
          d.Storage.Diff_log.merges d.Storage.Diff_log.reassembled_reads
          d.Storage.Diff_log.chains
      | None -> ())
    | None -> ());
    if verbose then begin
      match Ssmc.Machine.manager machine with
      | Some manager ->
        let e = Storage.Manager.wear_evenness manager in
        Fmt.pr "wear: min=%d max=%d stddev=%.1f@." e.Storage.Wear.min_erases
          e.Storage.Wear.max_erases e.Storage.Wear.stddev_erases
      | None -> ()
    end;
    (* Multi-card runs: per-card utilization (busy time over the run, from
       the per-card probe summaries) and wear, one row per card. *)
    match Ssmc.Machine.store machine with
    | Some (Storage.Store.Striped array) ->
      let snap = Probe.snapshot () in
      let summary_sum name =
        match Probe.Snapshot.find snap name with
        | Some (Probe.Snapshot.Summary { sum; _ }) -> sum
        | _ -> 0.0
      in
      let elapsed_us = Time.span_to_us result.Ssmc.Machine.elapsed in
      let t =
        Table.create
          ~title:
            (Fmt.str "per-card utilization and wear (%d cards, %a striping)"
               (Storage.Array.ncards array) Storage.Striping.pp_policy
               (Storage.Array.striping array))
          ~columns:
            [
              ("card", Table.Right);
              ("busy %", Table.Right);
              ("reads", Table.Right);
              ("writes", Table.Right);
              ("flushed", Table.Right);
              ("cleanings", Table.Right);
              ("erases min/max", Table.Right);
              ("wear stddev", Table.Right);
            ]
      in
      Stdlib.Array.iteri
        (fun i m ->
          let label metric = Storage.Banks.probe_label ~card:i metric in
          let counter name = Probe.Snapshot.counter_value snap (label name) in
          let busy_pct =
            if elapsed_us > 0.0 then
              100.0 *. summary_sum (label "busy_us") /. elapsed_us
            else 0.0
          in
          let e = Storage.Manager.wear_evenness m in
          Table.add_row t
            [
              Table.cell_i i;
              Table.cell_f ~decimals:1 busy_pct;
              Table.cell_i (counter "client_reads");
              Table.cell_i (counter "client_writes");
              Table.cell_i (counter "blocks_flushed");
              Table.cell_i (counter "clean_ops");
              Printf.sprintf "%d/%d" e.Storage.Wear.min_erases
                e.Storage.Wear.max_erases;
              Table.cell_f ~decimals:1 e.Storage.Wear.stddev_erases;
            ])
        (Storage.Store.managers (Storage.Store.Striped array));
      Table.print t;
      if Storage.Array.front_cache_capacity array > 0 then
        Fmt.pr "front cache: %d hits, %d misses@."
          (Storage.Array.front_cache_hits array)
          (Storage.Array.front_cache_misses array)
    | Some (Storage.Store.Single _) | None -> ()
  end
  else begin
    let seeds = List.init replicate (fun i -> seed + i) in
    Fmt.pr "replicating over %d seeds (%d..%d) on %d job%s@." replicate seed
      (seed + replicate - 1) (Pool.default_jobs ())
      (if Pool.default_jobs () = 1 then "" else "s");
    let rep =
      Ssmc.Machine.run_replicated ~seeds (fun ~seed -> snd (run_one ~seed))
    in
    if verbose then
      List.iter
        (fun (s, r) -> Fmt.pr "seed %d: %a@." s Ssmc.Machine.pp_result r)
        rep.Ssmc.Machine.runs;
    Fmt.pr "across seeds (mean ± 95%% CI):@.%a@." Ssmc.Machine.pp_replicated rep
  end;
  emit_captures ()

let wear_arg =
  let parse = function
    | "none" -> Ok Storage.Wear.None_
    | "dynamic" -> Ok Storage.Wear.Dynamic
    | "static" -> Ok (Storage.Wear.Static { spread_threshold = 16 })
    | s -> Error (`Msg (Printf.sprintf "unknown wear policy %S (none|dynamic|static)" s))
  in
  let print ppf p = Fmt.string ppf (Storage.Wear.policy_name p) in
  Arg.conv (parse, print)

let machine_arg =
  let parse = function
    | "solid" | "solid-state" -> Ok `Solid_state
    | "conventional" | "disk" -> Ok `Conventional
    | s -> Error (`Msg (Printf.sprintf "unknown machine %S (solid|conventional)" s))
  in
  let print ppf = function
    | `Solid_state -> Fmt.string ppf "solid"
    | `Conventional -> Fmt.string ppf "conventional"
  in
  Arg.conv (parse, print)

let cmd =
  let machine =
    Arg.(value & opt machine_arg `Solid_state & info [ "machine"; "m" ] ~docv:"KIND"
           ~doc:"Machine kind: solid (DRAM+flash) or conventional (DRAM+disk).")
  in
  let workload =
    Arg.(value & opt string "engineering" & info [ "workload"; "w" ] ~docv:"NAME"
           ~doc:"Synthetic workload profile (engineering, pim, compile, database).")
  in
  let trace_file =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Replay a trace file instead of generating one.")
  in
  let minutes =
    Arg.(value & opt float 10.0 & info [ "minutes" ] ~docv:"MIN"
           ~doc:"Simulated duration of the generated workload.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.") in
  let flash_mb =
    Arg.(value & opt int 20 & info [ "flash-mb" ] ~docv:"MB" ~doc:"Flash capacity.")
  in
  let dram_mb =
    Arg.(value & opt int 4 & info [ "dram-mb" ] ~docv:"MB" ~doc:"DRAM capacity.")
  in
  let buffer_kb =
    Arg.(value & opt int 1024 & info [ "buffer-kb" ] ~docv:"KB"
           ~doc:"DRAM write-buffer capacity (0 = write-through).")
  in
  let nbanks =
    Arg.(value & opt int 4 & info [ "banks" ] ~docv:"N" ~doc:"Flash banks.")
  in
  let cards =
    Arg.(value & opt int 1 & info [ "cards" ] ~docv:"N"
           ~doc:"Flash cards behind a striped array (--flash-mb and --banks are then \
                 per card).  1 mounts the storage manager directly; above 1 the run \
                 prints a per-card utilization/wear table.")
  in
  let strip_size =
    Arg.(value & opt int 4 & info [ "strip-size" ] ~docv:"BLOCKS"
           ~doc:"Round-robin strip size in blocks for the multi-card array; ignored \
                 with --cards 1.")
  in
  let parity =
    Arg.(value & flag & info [ "parity" ]
           ~doc:"Protect the multi-card array with rotating parity strips (RAID-5 \
                 shape): every write also updates its row's parity block on another \
                 card, and the array survives losing any single card.  Requires \
                 --cards 2 or more.")
  in
  let diff_log =
    Arg.(value & flag & info [ "diff-log" ]
           ~doc:"Page-differential logging: flushed overwrites program a small \
                 delta record against the block's durable base page instead of \
                 rewriting the whole page; reads reassemble the chain, and long \
                 chains merge back into a full page.  Trades read latency for \
                 write traffic.")
  in
  let partitioned =
    Arg.(value & flag & info [ "partitioned" ]
           ~doc:"Partition flash banks into write and read-mostly sets.")
  in
  let wear =
    Arg.(value & opt wear_arg Storage.Wear.Dynamic & info [ "wear" ] ~docv:"POLICY"
           ~doc:"Wear-leveling policy: none, dynamic or static.")
  in
  let jobs =
    Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Domain pool size for replicated runs (default: the SSMC_JOBS \
                 environment variable or the machine's core count).  Never changes \
                 results, only wall-clock.")
  in
  let replicate =
    Arg.(value & opt int 1 & info [ "replicate" ] ~docv:"N"
           ~doc:"Run N seeds (seed, seed+1, ...) in parallel and report each headline \
                 metric as mean ± 95% confidence interval.")
  in
  let metrics_json =
    Arg.(value & opt (some string) None & info [ "metrics-json" ] ~docv:"FILE"
           ~doc:"Write the probe registry's merged metric totals as JSON.  With \
                 --replicate, per-seed snapshots are merged in seed order, so the \
                 totals are identical at any --jobs.")
  in
  let trace_out =
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write an event timeline (op applies, flash programs/erases, cleaner \
                 passes, flush batches, faults, remounts) as Chrome trace_event JSON, \
                 loadable in Perfetto or about:tracing.")
  in
  let fault_after =
    Arg.(value & opt_all float [] & info [ "fault-after" ] ~docv:"SECONDS"
           ~doc:"Inject a fault (see --fault-kind) this many simulated seconds into \
                 the run (repeatable; solid-state machine only).")
  in
  let fault_kind =
    let parse = function
      | "power" -> Ok Fault.Power_failure
      | "swap" -> Ok Fault.Battery_swap
      | "depletion" -> Ok Fault.Battery_depletion
      | s -> Error (`Msg (Printf.sprintf "unknown fault kind %S (power|swap|depletion)" s))
    in
    let print ppf k = Fault.pp_kind ppf k in
    Arg.(value & opt (conv (parse, print)) Fault.Power_failure
         & info [ "fault-kind" ] ~docv:"KIND"
             ~doc:"What --fault-after injects: power (external power failure), swap \
                   (primary battery pulled), or depletion (primary dies abruptly).  \
                   Combine depletion with --backup-wh 0 for a cold restart.")
  in
  let backup_wh =
    Arg.(value & opt float 0.5 & info [ "backup-wh" ] ~docv:"WH"
           ~doc:"Backup (lithium) battery capacity in watt-hours; 0 removes it, so \
                 faults that outlast the primary cold-restart the machine.")
  in
  let fleet =
    Arg.(value & opt (some int) None & info [ "fleet" ] ~docv:"N"
           ~doc:"Fleet mode: simulate N heterogeneous devices (hardware variants, \
                 per-device workloads and seeds) streamed through the Domain pool \
                 in bounded memory, and print population-level aggregates.  \
                 --minutes is the per-device trace duration; --seed, --jobs apply.")
  in
  let fleet_shard =
    Arg.(value & opt int 256 & info [ "fleet-shard" ] ~docv:"N"
           ~doc:"Devices constructed and live per batch in fleet mode: peak memory \
                 scales with the shard (times jobs), never with --fleet.  Does not \
                 change results.")
  in
  let fleet_faults =
    Arg.(value & opt int 0 & info [ "fleet-faults" ] ~docv:"N"
           ~doc:"In fleet mode, inject N random power events into every device's \
                 run (kinds drawn uniformly; offsets uniform over the duration).")
  in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Extra statistics.") in
  let debug =
    Arg.(value & flag & info [ "debug" ]
           ~doc:"Log storage-manager internals (cleaning, wear-out, flushes).")
  in
  let term =
    Term.(
      const run_simulation $ machine $ workload $ trace_file $ minutes $ seed $ flash_mb
      $ dram_mb $ buffer_kb $ nbanks $ cards $ strip_size $ parity $ diff_log
      $ partitioned $ wear $ backup_wh $ jobs $ replicate $ metrics_json $ trace_out
      $ fault_after $ fault_kind $ fleet $ fleet_shard $ fleet_faults $ verbose $ debug)
  in
  Cmd.v
    (Cmd.info "ssmc_sim" ~doc:"Simulate a solid-state (or conventional) mobile computer")
    term

let () = exit (Cmd.eval cmd)
