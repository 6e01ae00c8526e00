(* E11 — Section 3.3's robustness argument, exercised end to end: power
   can disappear at any instant, so how much data is ever at risk, and
   what does coming back cost?
   Shape to reproduce: while any battery holds, faults are non-events —
   battery-backed DRAM rides them out and nothing is lost.  The exposure
   is bounded at every instant by the write-buffer occupancy (the paper's
   reason to bound the writeback delay), and a cold restart loses at most
   that bound, then remounts by scanning flash headers in time linear in
   the sector count.  The invariant checks below are hard failures:
   --check runs this experiment in dune runtest, so a recovery regression
   fails tier 1. *)
open Sim

let invariant cond fmt =
  Printf.ksprintf (fun msg -> if not cond then failwith ("E11 invariant: " ^ msg)) fmt

(* One machine run with a fault schedule and a periodic data-at-risk
   sampler; returns the run result plus the sampled exposure summary. *)
let faulted_run ~backup_wh ~faults ~duration =
  let cfg = Ssmc.Config.solid_state ~backup_wh ~seed:77 () in
  let trace =
    Trace.Synth.generate_seq Trace.Workloads.pim ~rng:(Rng.create ~seed:77) ~duration
  in
  let machine = Ssmc.Machine.create cfg in
  Ssmc.Machine.preload machine trace.Trace.Synth.stream_initial_files;
  (* Sample the write buffer's dirty count once a simulated second: that
     number IS the data at risk — exactly what a battery-less crash at the
     sampling instant would lose.  Re-fetch the manager each tick: a cold
     restart replaces it. *)
  let risk = Stat.Summary.create () in
  let engine = Ssmc.Machine.engine machine in
  Engine.schedule_every engine ~every:(Time.span_s 1.0)
    ~until:(Time.add (Engine.now engine) duration)
    (fun _ ->
      match Ssmc.Machine.manager machine with
      | Some m ->
        Stat.Summary.observe risk
          (float_of_int (Storage.Manager.stats m).Storage.Manager.dirty_blocks)
      | None -> ());
  let result = Ssmc.Machine.run_seq ~faults machine trace.Trace.Synth.seq in
  (machine, result, risk)

let run () =
  Common.section "E11: fault injection and crash recovery (Section 3.3)";
  let duration = Common.minutes 20.0 in
  let quarter f = Time.span_s (f *. Time.span_to_s duration) in

  (* Run 1 — batteries present: a power failure, a battery swap, and a
     primary depletion all hit mid-run, and all must be non-events. *)
  let warm_faults =
    Fault.schedule
      [
        { Fault.after = quarter 0.25; kind = Fault.Battery_swap };
        { Fault.after = quarter 0.5; kind = Fault.Battery_depletion };
        { Fault.after = quarter 0.75; kind = Fault.Power_failure };
      ]
  in
  let _, warm, warm_risk = faulted_run ~backup_wh:0.5 ~faults:warm_faults ~duration in
  let warm_log = warm.Ssmc.Machine.fault_log in
  invariant (List.length warm_log = 3) "expected 3 warm faults, saw %d"
    (List.length warm_log);
  List.iter
    (fun o ->
      invariant (o.Ssmc.Machine.survived_by <> `Nothing) "%s not survived despite batteries"
        (Fault.kind_name o.Ssmc.Machine.kind);
      invariant (o.Ssmc.Machine.blocks_lost = 0) "%s lost %d blocks while a battery held"
        (Fault.kind_name o.Ssmc.Machine.kind)
        o.Ssmc.Machine.blocks_lost;
      invariant (not o.Ssmc.Machine.cold_restart) "%s cold-restarted while a battery held"
        (Fault.kind_name o.Ssmc.Machine.kind))
    warm_log;

  (* Run 2 — no backup battery: depleting the primary mid-run forces a
     cold restart.  Loss is bounded by the buffer occupancy at the crash,
     and the remount recovers every flash-resident block. *)
  let cold_faults =
    Fault.schedule [ { Fault.after = quarter 0.5; kind = Fault.Battery_depletion } ]
  in
  let machine, cold, cold_risk = faulted_run ~backup_wh:0.0 ~faults:cold_faults ~duration in
  let outcome =
    match cold.Ssmc.Machine.fault_log with
    | [ o ] -> o
    | l -> failwith (Printf.sprintf "E11 invariant: expected 1 cold fault, saw %d" (List.length l))
  in
  invariant outcome.Ssmc.Machine.cold_restart "depletion without backup must cold-restart";
  invariant
    (outcome.Ssmc.Machine.blocks_lost <= outcome.Ssmc.Machine.dirty_at_fault)
    "lost %d blocks but only %d were dirty" outcome.Ssmc.Machine.blocks_lost
    outcome.Ssmc.Machine.dirty_at_fault;
  let report =
    match outcome.Ssmc.Machine.remount with
    | Some r -> r
    | None -> failwith "E11 invariant: cold restart carries no remount report"
  in
  invariant
    (report.Storage.Manager.buffered_lost = outcome.Ssmc.Machine.dirty_at_fault)
    "remount report buffered_lost=%d but %d blocks were dirty"
    report.Storage.Manager.buffered_lost outcome.Ssmc.Machine.dirty_at_fault;
  (match Ssmc.Machine.memfs machine with
  | Some fs -> (
    match Fs.Memfs.check fs with
    | Ok () -> ()
    | Error msg -> failwith ("E11 invariant: fsck after cold restart: " ^ msg))
  | None -> failwith "E11 invariant: solid-state machine lost its memfs");

  (* Report. *)
  let t =
    Table.create ~title:"fault outcomes (pim workload)"
      ~columns:
        [
          ("run", Table.Left);
          ("fault", Table.Left);
          ("survived by", Table.Left);
          ("dirty at fault", Table.Right);
          ("blocks lost", Table.Right);
          ("files damaged", Table.Right);
          ("remount", Table.Left);
        ]
  in
  let survived_name = function
    | `Primary_battery -> "primary battery"
    | `Backup_battery -> "backup battery"
    | `Parity -> "parity"
    | `Nothing -> "nothing (cold restart)"
  in
  let add_row run (o : Ssmc.Machine.fault_outcome) =
    Table.add_row t
      [
        run;
        Fault.kind_name o.Ssmc.Machine.kind;
        survived_name o.Ssmc.Machine.survived_by;
        Table.cell_i o.Ssmc.Machine.dirty_at_fault;
        Table.cell_i o.Ssmc.Machine.blocks_lost;
        Table.cell_i o.Ssmc.Machine.files_damaged;
        (match o.Ssmc.Machine.remount with
        | None -> "-"
        | Some r ->
          Printf.sprintf "%d sectors, %d live, %d stale, %.2f ms"
            r.Storage.Manager.sectors_scanned r.Storage.Manager.live_recovered
            r.Storage.Manager.stale_discarded
            (1000.0 *. Time.span_to_s o.Ssmc.Machine.remount_span));
      ]
  in
  List.iter (add_row "batteries present") warm_log;
  List.iter (add_row "no backup") cold.Ssmc.Machine.fault_log;
  Table.print t;
  let risk_row name risk =
    Common.note "%s: data at risk mean %.1f blocks, max %.0f (sampled 1/s over %d s)"
      name (Stat.Summary.mean risk)
      (Option.value ~default:0.0 (Stat.Summary.max risk))
      (Stat.Summary.count risk)
  in
  risk_row "batteries present" warm_risk;
  risk_row "no backup" cold_risk;
  Common.note
    "while any battery holds, every fault is a non-event: battery-backed DRAM keeps the \
     write buffer and metadata, nothing is lost, the trace never notices";
  Common.note
    "the exposure window is the write buffer: a cold crash loses at most its occupancy \
     (here %d of %d dirty blocks), bounded by the writeback delay of Section 3.3"
    outcome.Ssmc.Machine.blocks_lost outcome.Ssmc.Machine.dirty_at_fault;
  Common.note
    "recovery is a header scan: %d sectors in %.2f ms of device time, no journal replay"
    report.Storage.Manager.sectors_scanned
    (1000.0 *. Time.span_to_s outcome.Ssmc.Machine.remount_span);

  (* Headline metrics for --json; all deterministic, so --check pins them
     across job counts and against the checked-in snapshot. *)
  Common.put_metric "e11_warm_faults" (float_of_int (List.length warm_log));
  Common.put_metric "e11_warm_lost"
    (float_of_int (List.fold_left (fun a o -> a + o.Ssmc.Machine.blocks_lost) 0 warm_log));
  Common.put_metric "e11_warm_ops" (float_of_int warm.Ssmc.Machine.ops_applied);
  Common.put_metric "e11_warm_risk_mean" (Stat.Summary.mean warm_risk);
  Common.put_metric "e11_warm_risk_max"
    (Option.value ~default:0.0 (Stat.Summary.max warm_risk));
  Common.put_metric "e11_cold_dirty_at_crash"
    (float_of_int outcome.Ssmc.Machine.dirty_at_fault);
  Common.put_metric "e11_cold_lost" (float_of_int outcome.Ssmc.Machine.blocks_lost);
  Common.put_metric "e11_cold_files_damaged"
    (float_of_int outcome.Ssmc.Machine.files_damaged);
  Common.put_metric "e11_cold_ops" (float_of_int cold.Ssmc.Machine.ops_applied);
  Common.put_metric "e11_remount_sectors" (float_of_int report.Storage.Manager.sectors_scanned);
  Common.put_metric "e11_remount_live" (float_of_int report.Storage.Manager.live_recovered);
  Common.put_metric "e11_remount_stale" (float_of_int report.Storage.Manager.stale_discarded);
  Common.put_metric "e11_remount_ms"
    (1000.0 *. Time.span_to_s outcome.Ssmc.Machine.remount_span);
  Common.put_metric "e11_cold_risk_mean" (Stat.Summary.mean cold_risk);
  Common.put_metric "e11_cold_risk_max"
    (Option.value ~default:0.0 (Stat.Summary.max cold_risk))
