(** Fleet-scale simulation: a whole product line of solid-state mobile
    computers in one run.

    The paper argues about product lines — millions of palmtops and
    notebooks — while every experiment elsewhere in this repository drives
    one machine.  This module instantiates [N] heterogeneous devices
    (hardware drawn from weighted {!variant}s over {!Device.Specs} presets,
    per-device workloads drawn from a {!Trace.Workloads} mix, per-device
    randomness from index-keyed {!Sim.Rng.split_ix2} seed families) and
    streams them through the {!Sim.Pool} Domain pool in sharded batches:
    each device is built by {!Machine.create}, its trace streamed through
    {!Machine.run_seq}, reduced to a small {!device_report}, and released
    before the next shard starts.  Peak memory is therefore O(shard ×
    jobs), never O(N) — a million devices fit in the heap a few dozen would
    otherwise need ([test_fleet.ml] holds the live heap of 80 devices
    within 1.3× that of 8, and checks that no machine outlives {!run}).

    Per-device results fold into fleet-level aggregates in device-index
    order: scalar {!Sim.Stat.Summary}s, streaming {!Sim.Stat.Quantiles}
    sketches for the population distributions (wear across devices,
    lifetime), and merged {!Sim.Probe} snapshots.  Because work items share
    nothing, the pool preserves submission order, and the fold order is
    fixed, the whole {!report} is byte-identical at any job count and any
    shard size — held by [test_fleet.ml] and by the E12 row of
    [bench/main.exe --check]. *)

(** One hardware model in the product line: a weighted configuration
    template.  [v_mix] optionally overrides the fleet-wide workload mix —
    a palmtop model runs palmtop software — and is also how a model avoids
    workloads whose preload footprint exceeds its flash. *)
type variant = {
  v_weight : float;
  v_name : string;
  v_flash_mb : int;
  v_dram_mb : int;
  v_nbanks : int;
  v_flash_spec : Device.Specs.flash_spec;
  v_endurance_override : int option;
  v_buffer_kb : int option;  (** Write-buffer capacity; [None] = default. *)
  v_mix : (float * Trace.Synth.profile) list option;
}

val default_variants : variant list
(** Three 1993-flavoured models: a 20 MB Intel-flash workstation-class
    machine, a 10 MB budget palmtop (PIM/compile mix), and a 40 MB
    SunDisk-flash "pro" machine that also carries the database workload. *)

type spec = {
  devices : int;  (** Fleet size [N]. *)
  shard : int;  (** Devices constructed and live per batch. *)
  base_seed : int;
  duration : Sim.Time.span;  (** Per-device simulated trace duration. *)
  mix : (float * Trace.Synth.profile) list;
      (** Fleet-wide workload mix (weights need not sum to 1); a variant's
          [v_mix] takes precedence for its devices. *)
  variants : variant list;
  faults_per_device : int;
      (** Random power events injected into every device's run, offsets
          uniform over [duration] ({!Sim.Fault.random}); 0 disables. *)
  fault_kinds : Sim.Fault.kind list;
  wearout_horizon_years : float;
      (** The "year Y" for the fraction-past-wear-out headline. *)
}

val spec :
  ?shard:int ->
  ?base_seed:int ->
  ?duration:Sim.Time.span ->
  ?mix:(float * Trace.Synth.profile) list ->
  ?variants:variant list ->
  ?faults_per_device:int ->
  ?fault_kinds:Sim.Fault.kind list ->
  ?wearout_horizon_years:float ->
  devices:int ->
  unit ->
  spec
(** Defaults: shard 256, seed 1993, 10 simulated minutes per device, an
    engineering/PIM/compile mix, {!default_variants}, no faults (kinds
    default to all three), 10-year horizon. *)

val validate : spec -> (unit, string) result

(** What survives of a device once its shard is released: a few dozen
    scalars.  [d_lifetime_years] is [infinity] when the device flushed
    nothing to flash. *)
type device_report = {
  d_index : int;
  d_variant : string;
  d_workload : string;
  d_out_of_space : bool;
      (** The device ran out of flash (workload bigger than the model);
          its other fields are zero. *)
  d_ops : int;
  d_op_errors : int;
  d_read_us : float;  (** Mean per-op foreground read latency. *)
  d_write_us : float;
  d_energy_j : float;
  d_max_erases : int;  (** Most-worn sector's erase count. *)
  d_wear_stddev : float;
  d_write_amp : float;
  d_lifetime_years : float;
  d_faults : int;
  d_cold_restarts : int;
  d_blocks_lost : int;
  d_files_damaged : int;
}

val simulate_device : spec -> index:int -> device_report
(** Run device [index] alone — the exact per-device path {!run} executes,
    exposed for tests and spot checks.  Deterministic in
    [(spec.base_seed, index)] and nothing else. *)

(** Fleet-level aggregates, folded in device-index order.  Distribution
    sketches answer the population questions: [wear_max_erases] for wear
    percentiles across devices, [lifetime_years] for the lifetime
    distribution (finite lifetimes only; [unbounded_lifetimes] counts the
    rest). *)
type report = {
  devices : int;
  out_of_space : int;
  ops : int;
  op_errors : int;
  read_us : Sim.Stat.Summary.t;  (** Across devices, of per-device means. *)
  write_us : Sim.Stat.Summary.t;
  energy_j : Sim.Stat.Summary.t;
  wear_max_erases : Sim.Stat.Quantiles.t;
  wear_stddev : Sim.Stat.Summary.t;
  write_amp : Sim.Stat.Summary.t;
  lifetime_years : Sim.Stat.Quantiles.t;
  unbounded_lifetimes : int;
  past_wearout : int;
      (** Devices whose estimated lifetime is within the horizon. *)
  faults : int;
  cold_restarts : int;
  blocks_lost : int;
  files_damaged : int;
  by_variant : (string * int) list;  (** Device counts, in [variants] order. *)
  by_workload : (string * int) list;  (** In effective-mix profile order. *)
  probes : Sim.Probe.Snapshot.t;
      (** Per-device probe snapshots merged in index order (empty unless
          {!Sim.Probe.set_metrics} is on). *)
}

val run :
  ?jobs:int ->
  ?on_shard:(done_devices:int -> total:int -> unit) ->
  spec ->
  report
(** Stream the fleet through the Domain pool shard by shard.  [on_shard]
    fires after each shard folds (progress reporting).  The report is
    byte-identical at any [jobs] and any [spec.shard].
    @raise Invalid_argument if {!validate} rejects the spec. *)

val pp_report : Format.formatter -> report -> unit
