(* What the harness needs from a workload.  One pass of a workload is a
   few sessions, each a system built from the seed and then run; the
   harness times each session's set-up and run separately, and only one
   session's system is alive at a time.  An instance serves one pass,
   traced or untraced. *)

type size = Full | Tiny

type outcome = {
  ops : int;  (** Operations attempted. *)
  failed : int;  (** Operations that returned an error. *)
  digest : string;  (** Hash of everything the pass simulated. *)
  values : Metric.t list;
      (** Simulated results: the [sim_*] metrics (the latency ones only
          from traced passes, which sample every op) and the deterministic
          layer counts. *)
}

type report = {
  outcome : outcome;
  expected_ops : int;  (** Operations in the generated input. *)
  check : (unit, string) result;  (** Consistency checks after each session. *)
  setup_steps : Metric.t list;  (** Host seconds of each set-up step. *)
  layers : Metric.t list;  (** Traced layer metrics; empty when untraced. *)
}

type instance = {
  sessions : int;
  setup : int -> unit;  (** Build session [i] (timed as set-up). *)
  run : int -> unit;  (** Run session [i] (timed). *)
  close : int -> unit;
      (** Read session [i]'s results and release it (untimed). *)
  finish : unit -> report;  (** The pass's pooled results. *)
}

type t = { name : string; prepare : seed:int -> size:size -> traced:bool -> instance }

(* The deterministic state every storage workload reports: manager, array,
   front-cache, diff-log and device counters, read through public stats
   accessors after the run. *)
let store_counts store =
  let s = Storage.Store.stats store in
  let managers = Storage.Store.managers store in
  let flash f = Array.fold_left (fun acc m -> acc + f (Storage.Manager.flash m)) 0 managers in
  let flash_ms f =
    Array.fold_left
      (fun acc m -> acc +. Sim.Time.span_to_ms (f (Storage.Manager.flash m)))
      0.0 managers
  in
  let dram = Storage.Store.dram store in
  let parity = Storage.Store.parity_stats store in
  let pf f = match parity with Some p -> f p | None -> 0 in
  let diff = Storage.Store.diff_stats store in
  let df f = match diff with Some d -> f d | None -> 0 in
  let front f = match store with Storage.Store.Striped a -> f a | Single _ -> 0 in
  [
    Metric.count "manager.client_writes" s.client_writes;
    Metric.count "manager.client_reads" s.client_reads;
    Metric.count "manager.absorbed_writes" s.absorbed_writes;
    Metric.count "manager.blocks_flushed" s.blocks_flushed;
    Metric.count "manager.blocks_cleaned" s.blocks_cleaned;
    Metric.count "manager.cleanings" s.cleanings;
    Metric.count "manager.cold_loads" s.cold_loads;
    Metric.count "manager.hot_retained" s.hot_retained;
    Metric.count "array.parity_writes" (pf (fun p -> p.Storage.Array.parity_writes));
    Metric.count "array.reconstructed_reads" (pf (fun p -> p.Storage.Array.reconstructed_reads));
    Metric.count "array.rebuilt_blocks" (pf (fun p -> p.Storage.Array.rebuilt_blocks));
    Metric.count "front_cache.hits" (front Storage.Array.front_cache_hits);
    Metric.count "front_cache.misses" (front Storage.Array.front_cache_misses);
    Metric.count "diff_log.deltas" (df (fun d -> d.Storage.Diff_log.deltas_flushed));
    Metric.count "diff_log.merges" (df (fun d -> d.Storage.Diff_log.merges));
    Metric.v "diff_log.delta_bytes_flushed" "B"
      (float_of_int (df (fun d -> d.Storage.Diff_log.delta_bytes_flushed)));
    Metric.count "flash.programs" (flash Device.Flash.programs);
    Metric.count "flash.erases" (flash Device.Flash.erases);
    Metric.count "flash.reads" (flash Device.Flash.reads);
    Metric.v "flash.bytes_programmed" "B" (float_of_int (flash Device.Flash.bytes_programmed));
    Metric.v "flash.total_wait_ms" "ms" (flash_ms Device.Flash.total_wait);
    Metric.v "flash.read_wait_ms" "ms" (flash_ms Device.Flash.read_wait);
    Metric.count "dram.reads" (Device.Dram.reads dram);
    Metric.count "dram.writes" (Device.Dram.writes dram);
  ]

(* The write-buffer gauges ROADMAP item 1 targets, summed over cards. *)
let buffer_pending managers =
  Array.fold_left (fun acc m -> acc + Storage.Manager.buffer_pending_entries m) 0 managers

let buffer_dirty managers =
  Array.fold_left
    (fun acc m -> acc + (Storage.Manager.stats m).Storage.Manager.dirty_blocks)
    0 managers

let lifetime_years store ~elapsed =
  Array.fold_left
    (fun acc m ->
      Float.min acc
        (Ssmc.Lifetime.of_run ~flash:(Storage.Manager.flash m)
           ~stats:(Storage.Manager.stats m) ~evenness:(Storage.Manager.wear_evenness m)
           ~elapsed))
    infinity (Storage.Store.managers store)

let digest_counts buf metrics =
  List.iter (fun m -> Printf.bprintf buf "%s=%h\n" m.Metric.name m.Metric.value) metrics

(* The simulated latency metrics, from exact per-op samples (us). *)
let latency_metrics ~reads ~writes =
  let r = Samples.sorted reads and w = Samples.sorted writes in
  [
    Metric.v "sim_read_p50_us" "us" (Samples.quantile_of_sorted r 0.5);
    Metric.v "sim_read_p99_us" "us" (Samples.quantile_of_sorted r 0.99);
    Metric.v "sim_write_p99_us" "us" (Samples.quantile_of_sorted w 0.99);
    Metric.count "sim.read_samples" (Samples.count reads);
    Metric.count "sim.write_samples" (Samples.count writes);
  ]
