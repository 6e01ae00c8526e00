open Sim

type variant = {
  v_weight : float;
  v_name : string;
  v_flash_mb : int;
  v_dram_mb : int;
  v_nbanks : int;
  v_flash_spec : Device.Specs.flash_spec;
  v_endurance_override : int option;
  v_buffer_kb : int option;
  v_mix : (float * Trace.Synth.profile) list option;
}

(* Preload footprints bound which workloads a model can host: engineering
   installs ~12 MB of initial files, database ~26 MB, so the palmtop keeps
   to PIM/compile and only the 40 MB machine carries the database load. *)
let default_variants =
  [
    {
      v_weight = 0.5;
      v_name = "slate-20";
      v_flash_mb = 20;
      v_dram_mb = 4;
      v_nbanks = 4;
      v_flash_spec = Device.Specs.intel_flash;
      v_endurance_override = None;
      v_buffer_kb = None;
      v_mix = None;
    };
    {
      v_weight = 0.3;
      v_name = "palmtop-10";
      v_flash_mb = 10;
      v_dram_mb = 2;
      v_nbanks = 2;
      v_flash_spec = Device.Specs.intel_flash;
      v_endurance_override = None;
      v_buffer_kb = Some 128;
      v_mix =
        Some [ (0.7, Trace.Workloads.pim); (0.3, Trace.Workloads.compile) ];
    };
    {
      v_weight = 0.2;
      v_name = "pro-40";
      v_flash_mb = 40;
      v_dram_mb = 8;
      v_nbanks = 8;
      v_flash_spec = Device.Specs.sundisk_flash;
      v_endurance_override = None;
      v_buffer_kb = None;
      v_mix =
        Some
          [
            (0.4, Trace.Workloads.engineering);
            (0.3, Trace.Workloads.database);
            (0.3, Trace.Workloads.compile);
          ];
    };
  ]

type spec = {
  devices : int;
  shard : int;
  base_seed : int;
  duration : Time.span;
  mix : (float * Trace.Synth.profile) list;
  variants : variant list;
  faults_per_device : int;
  fault_kinds : Fault.kind list;
  wearout_horizon_years : float;
}

let default_mix =
  [
    (0.5, Trace.Workloads.engineering);
    (0.3, Trace.Workloads.pim);
    (0.2, Trace.Workloads.compile);
  ]

let spec ?(shard = 256) ?(base_seed = 1993) ?(duration = Time.span_s 600.0)
    ?(mix = default_mix) ?(variants = default_variants)
    ?(faults_per_device = 0)
    ?(fault_kinds = [ Fault.Power_failure; Fault.Battery_swap; Fault.Battery_depletion ])
    ?(wearout_horizon_years = 10.0) ~devices () =
  {
    devices;
    shard;
    base_seed;
    duration;
    mix;
    variants;
    faults_per_device;
    fault_kinds;
    wearout_horizon_years;
  }

let validate_mix what mix =
  if mix = [] then Error (what ^ ": empty workload mix")
  else
    List.fold_left
      (fun acc (w, p) ->
        match acc with
        | Error _ -> acc
        | Ok () ->
          if not (Float.is_finite w) || w <= 0.0 then
            Error
              (Printf.sprintf "%s: weight of %s must be positive" what
                 p.Trace.Synth.name)
          else
            Result.map_error
              (fun m -> Printf.sprintf "%s: profile %s: %s" what p.Trace.Synth.name m)
              (Trace.Synth.validate p))
      (Ok ()) mix

let validate s =
  let ( let* ) = Result.bind in
  let check cond msg = if cond then Ok () else Error msg in
  let* () = check (s.devices >= 1) "devices < 1" in
  let* () = check (s.shard >= 1) "shard < 1" in
  let* () = check (Time.span_to_ns s.duration > 0) "duration <= 0" in
  let* () = check (s.variants <> []) "no variants" in
  let* () =
    List.fold_left
      (fun acc v ->
        let* () = acc in
        let what = "variant " ^ v.v_name in
        let* () =
          check
            (Float.is_finite v.v_weight && v.v_weight > 0.0)
            (what ^ ": weight must be positive")
        in
        let* () = check (v.v_flash_mb >= 1) (what ^ ": flash_mb < 1") in
        let* () = check (v.v_dram_mb >= 1) (what ^ ": dram_mb < 1") in
        let* () = check (v.v_nbanks >= 1) (what ^ ": nbanks < 1") in
        let* () =
          check
            (match v.v_buffer_kb with Some kb -> kb >= 0 | None -> true)
            (what ^ ": negative buffer_kb")
        in
        match v.v_mix with Some m -> validate_mix what m | None -> Ok ())
      (Ok ()) s.variants
  in
  let* () = validate_mix "mix" s.mix in
  let* () = check (s.faults_per_device >= 0) "faults_per_device < 0" in
  let* () =
    check
      (s.faults_per_device = 0 || s.fault_kinds <> [])
      "faults_per_device > 0 with no fault kinds"
  in
  check
    (Float.is_finite s.wearout_horizon_years && s.wearout_horizon_years > 0.0)
    "wearout_horizon_years must be positive"

type device_report = {
  d_index : int;
  d_variant : string;
  d_workload : string;
  d_out_of_space : bool;
  d_ops : int;
  d_op_errors : int;
  d_read_us : float;
  d_write_us : float;
  d_energy_j : float;
  d_max_erases : int;
  d_wear_stddev : float;
  d_write_amp : float;
  d_lifetime_years : float;
  d_faults : int;
  d_cold_restarts : int;
  d_blocks_lost : int;
  d_files_damaged : int;
}

(* Per-device seed family: everything device [i] randomizes is a pure
   split of (base_seed, i, stream).  Streams are fixed small ints, so no
   two decisions anywhere in the fleet share generator state. *)
let stream_variant = 0
let stream_workload = 1
let stream_machine = 2
let stream_trace = 3
let stream_faults = 4

let device_rng s ~index ~stream =
  Rng.split_ix2 (Rng.create ~seed:s.base_seed) ~index ~stream

let pick_weighted rng ~weight items =
  let total = List.fold_left (fun acc x -> acc +. weight x) 0.0 items in
  let u = Rng.float rng total in
  let rec go acc = function
    | [] -> assert false
    | [ x ] -> x  (* float slack: the last candidate absorbs the remainder *)
    | x :: rest ->
      let acc = acc +. weight x in
      if u < acc then x else go acc rest
  in
  go 0.0 items

let effective_mix s v = match v.v_mix with Some m -> m | None -> s.mix

let config_of_variant v ~seed =
  let manager =
    match v.v_buffer_kb with
    | None -> None
    | Some kb ->
      let capacity_blocks = kb * 1024 / v.v_flash_spec.Device.Specs.f_sector_bytes in
      Some
        {
          Storage.Manager.default_config with
          Storage.Manager.buffer =
            {
              Storage.Write_buffer.default_config with
              Storage.Write_buffer.capacity_blocks;
            };
        }
  in
  Config.solid_state ~name:v.v_name ~dram_mb:v.v_dram_mb ~flash_mb:v.v_flash_mb
    ~nbanks:v.v_nbanks ~flash_spec:v.v_flash_spec
    ?endurance_override:v.v_endurance_override ?manager ~seed ()

let out_of_space_report ~index ~variant ~workload =
  {
    d_index = index;
    d_variant = variant;
    d_workload = workload;
    d_out_of_space = true;
    d_ops = 0;
    d_op_errors = 0;
    d_read_us = 0.0;
    d_write_us = 0.0;
    d_energy_j = 0.0;
    d_max_erases = 0;
    d_wear_stddev = 0.0;
    d_write_amp = 0.0;
    d_lifetime_years = infinity;
    d_faults = 0;
    d_cold_restarts = 0;
    d_blocks_lost = 0;
    d_files_damaged = 0;
  }

(* The full per-device path: pick hardware and workload, build the
   machine, stream the generated trace through it, reduce to scalars.
   Returns the probe snapshot alongside so [run] can fold
   fleet-wide metrics; the snapshot is empty unless the harness enabled
   metrics. *)
let simulate_device_full s ~index =
  let variant =
    pick_weighted (device_rng s ~index ~stream:stream_variant)
      ~weight:(fun v -> v.v_weight)
      s.variants
  in
  let _, profile =
    pick_weighted (device_rng s ~index ~stream:stream_workload)
      ~weight:fst (effective_mix s variant)
  in
  let machine_seed =
    Rng.int (device_rng s ~index ~stream:stream_machine) 0x3FFFFFFF
  in
  let cfg = config_of_variant variant ~seed:machine_seed in
  let workload = profile.Trace.Synth.name in
  try
    let machine = Machine.create cfg in
    let stream =
      Trace.Synth.generate_seq profile
        ~rng:(device_rng s ~index ~stream:stream_trace)
        ~duration:s.duration
    in
    Machine.preload machine stream.Trace.Synth.stream_initial_files;
    let faults =
      if s.faults_per_device = 0 then None
      else
        Some
          (Fault.random
             ~rng:(device_rng s ~index ~stream:stream_faults)
             ~kinds:s.fault_kinds ~n:s.faults_per_device ~over:s.duration ())
    in
    let result = Machine.run_seq ?faults machine stream.Trace.Synth.seq in
    let evenness =
      match Machine.manager machine with
      | Some m -> Some (Storage.Manager.wear_evenness m)
      | None -> None
    in
    let report =
      {
        d_index = index;
        d_variant = variant.v_name;
        d_workload = workload;
        d_out_of_space = false;
        d_ops = result.Machine.ops_applied;
        d_op_errors = result.Machine.op_errors;
        d_read_us = Stat.Summary.mean result.Machine.read_latency;
        d_write_us = Stat.Summary.mean result.Machine.write_latency;
        d_energy_j = result.Machine.energy_j;
        d_max_erases =
          (match evenness with
          | Some e -> e.Storage.Wear.max_erases
          | None -> 0);
        d_wear_stddev =
          (match evenness with
          | Some e -> e.Storage.Wear.stddev_erases
          | None -> 0.0);
        d_write_amp =
          (match result.Machine.manager_stats with
          | Some st -> st.Storage.Manager.write_amplification
          | None -> 0.0);
        d_lifetime_years =
          (match result.Machine.lifetime_years with
          | Some y -> y
          | None -> infinity);
        d_faults = List.length result.Machine.fault_log;
        d_cold_restarts =
          List.length
            (List.filter
               (fun f -> f.Machine.cold_restart)
               result.Machine.fault_log);
        d_blocks_lost =
          List.fold_left
            (fun acc f -> acc + f.Machine.blocks_lost)
            0 result.Machine.fault_log;
        d_files_damaged =
          List.fold_left
            (fun acc f -> acc + f.Machine.files_damaged)
            0 result.Machine.fault_log;
      }
    in
    (report, Probe.snapshot ())
  with Storage.Manager.Out_of_space ->
    (* The workload outgrew the model's flash: a real fleet datum, not a
       crash. *)
    (out_of_space_report ~index ~variant:variant.v_name ~workload,
     Probe.snapshot ())

let simulate_device s ~index =
  (match validate s with
  | Ok () -> ()
  | Error m -> invalid_arg ("Fleet.simulate_device: " ^ m));
  if index < 0 || index >= s.devices then
    invalid_arg "Fleet.simulate_device: index out of range";
  fst (simulate_device_full s ~index)

type report = {
  devices : int;
  out_of_space : int;
  ops : int;
  op_errors : int;
  read_us : Stat.Summary.t;
  write_us : Stat.Summary.t;
  energy_j : Stat.Summary.t;
  wear_max_erases : Stat.Quantiles.t;
  wear_stddev : Stat.Summary.t;
  write_amp : Stat.Summary.t;
  lifetime_years : Stat.Quantiles.t;
  unbounded_lifetimes : int;
  past_wearout : int;
  faults : int;
  cold_restarts : int;
  blocks_lost : int;
  files_damaged : int;
  by_variant : (string * int) list;
  by_workload : (string * int) list;
  probes : Probe.Snapshot.t;
}

let workload_names s =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let add (_, p) =
    let name = p.Trace.Synth.name in
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.add seen name ();
      out := name :: !out
    end
  in
  List.iter add s.mix;
  List.iter
    (fun v -> match v.v_mix with Some m -> List.iter add m | None -> ())
    s.variants;
  List.rev !out

let run ?jobs ?on_shard s =
  (match validate s with
  | Ok () -> ()
  | Error m -> invalid_arg ("Fleet.run: " ^ m));
  let ops = ref 0 and op_errors = ref 0 in
  let out_of_space = ref 0 in
  let read_us = Stat.Summary.create () in
  let write_us = Stat.Summary.create () in
  let energy_j = Stat.Summary.create () in
  let wear_max_erases = Stat.Quantiles.create () in
  let wear_stddev = Stat.Summary.create () in
  let write_amp = Stat.Summary.create () in
  let lifetime_years = Stat.Quantiles.create () in
  let unbounded = ref 0 and past_wearout = ref 0 in
  let faults = ref 0 and cold_restarts = ref 0 in
  let blocks_lost = ref 0 and files_damaged = ref 0 in
  let by_variant = Hashtbl.create 8 and by_workload = Hashtbl.create 8 in
  let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)) in
  let probes = ref Probe.Snapshot.empty in
  let absorb (d, snap) =
    bump by_variant d.d_variant;
    bump by_workload d.d_workload;
    if d.d_out_of_space then incr out_of_space
    else begin
      ops := !ops + d.d_ops;
      op_errors := !op_errors + d.d_op_errors;
      Stat.Summary.observe read_us d.d_read_us;
      Stat.Summary.observe write_us d.d_write_us;
      Stat.Summary.observe energy_j d.d_energy_j;
      Stat.Quantiles.observe wear_max_erases (float_of_int d.d_max_erases);
      Stat.Summary.observe wear_stddev d.d_wear_stddev;
      Stat.Summary.observe write_amp d.d_write_amp;
      if Float.is_finite d.d_lifetime_years then begin
        Stat.Quantiles.observe lifetime_years d.d_lifetime_years;
        if d.d_lifetime_years <= s.wearout_horizon_years then incr past_wearout
      end
      else incr unbounded;
      faults := !faults + d.d_faults;
      cold_restarts := !cold_restarts + d.d_cold_restarts;
      blocks_lost := !blocks_lost + d.d_blocks_lost;
      files_damaged := !files_damaged + d.d_files_damaged
    end;
    probes := Probe.Snapshot.merge !probes snap
  in
  (* Stream the fleet: one shard of devices exists at a time.  Within a
     shard the pool preserves submission order, across shards the loop is
     sequential, and [absorb] folds in index order — so the aggregates are
     byte-identical at any job count and any shard size, and peak heap is
     O(shard x jobs) regardless of [s.devices]. *)
  let start = ref 0 in
  while !start < s.devices do
    let stop = Stdlib.min s.devices (!start + s.shard) in
    let lo = !start in
    let indices = List.init (stop - lo) (fun i -> lo + i) in
    let shard_reports =
      Pool.run_map ?jobs (fun index -> simulate_device_full s ~index) indices
    in
    List.iter absorb shard_reports;
    start := stop;
    match on_shard with
    | Some f -> f ~done_devices:stop ~total:s.devices
    | None -> ()
  done;
  {
    devices = s.devices;
    out_of_space = !out_of_space;
    ops = !ops;
    op_errors = !op_errors;
    read_us;
    write_us;
    energy_j;
    wear_max_erases;
    wear_stddev;
    write_amp;
    lifetime_years;
    unbounded_lifetimes = !unbounded;
    past_wearout = !past_wearout;
    faults = !faults;
    cold_restarts = !cold_restarts;
    blocks_lost = !blocks_lost;
    files_damaged = !files_damaged;
    by_variant =
      List.filter_map
        (fun v ->
          Option.map (fun n -> (v.v_name, n)) (Hashtbl.find_opt by_variant v.v_name))
        s.variants;
    by_workload =
      List.filter_map
        (fun name ->
          Option.map (fun n -> (name, n)) (Hashtbl.find_opt by_workload name))
        (workload_names s);
    probes = !probes;
  }

let pp_report ppf r =
  let counts ppf l =
    Fmt.(list ~sep:(any " ") (fun ppf (name, n) -> Fmt.pf ppf "%s=%d" name n)) ppf l
  in
  Fmt.pf ppf "fleet: %d devices (%d out of space)@," r.devices r.out_of_space;
  Fmt.pf ppf "  by variant:  %a@," counts r.by_variant;
  Fmt.pf ppf "  by workload: %a@," counts r.by_workload;
  Fmt.pf ppf "  ops: %d applied, %d errors@," r.ops r.op_errors;
  Fmt.pf ppf "  read us/op:  mean of device means %.2f (stddev %.2f)@,"
    (Stat.Summary.mean r.read_us)
    (Stat.Summary.stddev r.read_us);
  Fmt.pf ppf "  write us/op: mean of device means %.2f (stddev %.2f)@,"
    (Stat.Summary.mean r.write_us)
    (Stat.Summary.stddev r.write_us);
  Fmt.pf ppf "  energy J:    mean %.3f (stddev %.3f)@,"
    (Stat.Summary.mean r.energy_j)
    (Stat.Summary.stddev r.energy_j);
  Fmt.pf ppf "  wear (max erases/device): p50 %.0f  p90 %.0f  p99 %.0f@,"
    (Stat.Quantiles.quantile r.wear_max_erases 0.5)
    (Stat.Quantiles.quantile r.wear_max_erases 0.9)
    (Stat.Quantiles.quantile r.wear_max_erases 0.99);
  Fmt.pf ppf "  write amplification: mean %.3f@," (Stat.Summary.mean r.write_amp);
  (if Stat.Quantiles.count r.lifetime_years > 0 then
     Fmt.pf ppf "  lifetime years: p10 %.1f  p50 %.1f  (%d devices unbounded)@,"
       (Stat.Quantiles.quantile r.lifetime_years 0.1)
       (Stat.Quantiles.quantile r.lifetime_years 0.5)
       r.unbounded_lifetimes
   else Fmt.pf ppf "  lifetime years: all %d devices unbounded@," r.unbounded_lifetimes);
  Fmt.pf ppf "  past wear-out within horizon: %d (%.2f%%)@," r.past_wearout
    (100.0 *. float_of_int r.past_wearout /. float_of_int (Stdlib.max 1 r.devices));
  Fmt.pf ppf "  faults: %d injected, %d cold restarts, %d blocks lost, %d files damaged"
    r.faults r.cold_restarts r.blocks_lost r.files_damaged
