open Sim

type fs_impl = Mem of Fs.Memfs.t | Disk_fs of Fs.Ffs.t

type t = {
  cfg : Config.t;
  engine : Engine.t;
  rng : Rng.t;
  dram : Device.Dram.t;
  flashes : Device.Flash.t array;  (* One per card; empty on conventional. *)
  disk : Device.Disk.t option;
  (* A cold restart (crash + remount) replaces both: the old store and
     file system die with the DRAM contents. *)
  mutable store : Storage.Store.t option;
  mutable fs : fs_impl;
  (* Bumped whenever [fs] is replaced, so pre-resolved file-system routes
     (compiled replay) know to re-resolve. *)
  mutable fs_gen : int;
  battery : Device.Battery.t;
  mutable last_account : Time.t;
  mutable accounted_j : float;  (** Energy already drained from the battery. *)
  mutable errors : int;
}

(* A single card mounts its manager directly ([Store.Single]) — exactly
   the pre-array machine; two or more cards go behind a striped
   [Storage.Array]. *)
let create (cfg : Config.t) =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:cfg.Config.seed in
  let dram =
    Device.Dram.create ~size_bytes:cfg.Config.dram_bytes
      ~battery_backed:cfg.Config.battery_backed_dram ()
  in
  let battery =
    Device.Battery.of_watt_hours ~backup_wh:cfg.Config.backup_wh cfg.Config.battery_wh
  in
  let flashes, disk, store, fs =
    match cfg.Config.storage with
    | Config.Solid_state
        {
          flash_bytes;
          nbanks;
          flash_spec;
          endurance_override;
          manager;
          cards;
          striping;
          front_cache_blocks;
        } ->
      if cards < 1 then invalid_arg "Machine.create: cards must be at least 1";
      let flashes =
        Array.init cards (fun _ ->
            Device.Flash.create
              (Device.Flash.config ~spec:flash_spec ~nbanks ?endurance_override
                 ~size_bytes:flash_bytes ()))
      in
      let store =
        if cards = 1 then
          Storage.Store.Single
            (Storage.Manager.create manager ~engine ~flash:flashes.(0) ~dram)
        else
          Storage.Store.Striped
            (Storage.Array.create ~front_cache_blocks ~striping manager ~engine
               ~flashes ~dram)
      in
      (flashes, None, Some store, Mem (Fs.Memfs.create_fs_store ~store ()))
    | Config.Conventional { disk_spec; spindown_timeout; ffs } ->
      let disk =
        Device.Disk.create ~spec:disk_spec ?spindown_timeout ~rng:(Rng.split rng) ()
      in
      let fs = Fs.Ffs.create_fs ~config:ffs ~engine ~disk ~dram () in
      ([||], Some disk, None, Disk_fs fs)
  in
  {
    cfg;
    engine;
    rng;
    dram;
    flashes;
    disk;
    store;
    fs;
    fs_gen = 0;
    battery;
    last_account = Time.zero;
    accounted_j = 0.0;
    errors = 0;
  }

let config t = t.cfg
let engine t = t.engine
let dram t = t.dram
let battery t = t.battery
let rng t = t.rng
let store t = t.store

let manager t =
  match t.store with
  | Some (Storage.Store.Single m) -> Some m
  | Some (Storage.Store.Striped _) | None -> None

let flash t = if Array.length t.flashes = 1 then Some t.flashes.(0) else None
let flashes t = t.flashes
let disk t = t.disk
let memfs t = match t.fs with Mem m -> Some m | Disk_fs _ -> None
let ffs t = match t.fs with Disk_fs f -> Some f | Mem _ -> None

(* --- FS dispatch ------------------------------------------------------------ *)

let fs_create t path =
  match t.fs with Mem m -> Fs.Memfs.create m path | Disk_fs f -> Fs.Ffs.create f path

let fs_mkdir t path =
  match t.fs with Mem m -> Fs.Memfs.mkdir m path | Disk_fs f -> Fs.Ffs.mkdir f path

let fs_write t path ~offset ~bytes =
  match t.fs with
  | Mem m -> Fs.Memfs.write m path ~offset ~bytes
  | Disk_fs f -> Fs.Ffs.write f path ~offset ~bytes

let fs_read t path ~offset ~bytes =
  match t.fs with
  | Mem m -> Fs.Memfs.read m path ~offset ~bytes
  | Disk_fs f -> Fs.Ffs.read f path ~offset ~bytes

let fs_truncate t path ~size =
  match t.fs with
  | Mem m -> Fs.Memfs.truncate m path ~size
  | Disk_fs f -> Fs.Ffs.truncate f path ~size

let fs_unlink t path =
  match t.fs with Mem m -> Fs.Memfs.unlink m path | Disk_fs f -> Fs.Ffs.unlink f path

let fs_exists t path =
  match t.fs with Mem m -> Fs.Memfs.exists m path | Disk_fs f -> Fs.Ffs.exists f path

let fs_preload t path ~size =
  match t.fs with
  | Mem m -> Fs.Memfs.preload m path ~size
  | Disk_fs f -> Fs.Ffs.preload f path ~size

(* --- Power accounting ---------------------------------------------------------- *)

let total_energy t =
  let meters =
    Device.Power.Meter.total_joules (Device.Dram.meter t.dram)
    +. Array.fold_left
         (fun acc f -> acc +. Device.Power.Meter.total_joules (Device.Flash.meter f))
         0.0 t.flashes
    +.
    match t.disk with
    | Some d -> Device.Power.Meter.total_joules (Device.Disk.meter d)
    | None -> 0.0
  in
  meters

let account t =
  let now = Engine.now t.engine in
  if Time.( < ) t.last_account now then begin
    let dt = Time.diff now t.last_account in
    Device.Dram.charge_idle t.dram dt;
    Array.iter (fun f -> Device.Flash.charge_idle f dt) t.flashes;
    (match t.disk with Some d -> Device.Disk.finish_accounting d ~now | None -> ());
    t.last_account <- now
  end;
  let total = total_energy t in
  let delta = total -. t.accounted_j in
  if delta > 0.0 then begin
    Device.Battery.drain t.battery ~joules:delta;
    t.accounted_j <- total
  end

(* --- Preload -------------------------------------------------------------------- *)

let settle_time t =
  let flash_busy =
    let busy = ref Time.zero in
    Array.iter
      (fun f ->
        for bank = 0 to Device.Flash.nbanks f - 1 do
          busy := Time.max !busy (Device.Flash.bank_busy_until f ~bank)
        done)
      t.flashes;
    !busy
  in
  let disk_busy =
    match t.disk with Some d -> Device.Disk.busy_until d | None -> Time.zero
  in
  Time.max flash_busy disk_busy

let preload t files =
  (match fs_mkdir t "/data" with
  | Ok _ -> ()
  | Error Fs.Fs_error.Eexist -> ()
  | Error e -> Fmt.failwith "Machine.preload: mkdir /data: %a" Fs.Fs_error.pp e);
  List.iter
    (fun (id, size) ->
      match fs_preload t (Fs.Vfs.path_of_file_id id) ~size with
      | Ok () -> ()
      | Error e ->
        Fmt.failwith "Machine.preload: file %d (%d bytes): %a" id size Fs.Fs_error.pp e)
    files;
  (* Let the devices drain, then start the measured run from zero.  The
     "start clean" contract: every counter the run reports — manager,
     write buffer, devices, buffer cache, and the probe registry — is zero
     here.  Solid-state resets route through Manager.reset_traffic (which
     also clears the probe registry); the conventional path clears its own
     pieces and the registry explicitly. *)
  let settle = Time.add (settle_time t) (Time.span_s 1.0) in
  Engine.run_until t.engine settle;
  (match t.store with Some s -> Storage.Store.reset_traffic s | None -> ());
  (match t.disk with Some d -> Device.Disk.reset_stats d | None -> ());
  (match t.fs with
  | Mem _ -> ()
  | Disk_fs f ->
    (* The buffer cache's hit/miss/writeback counters were missed by the
       original reset sweep: preloads left them non-zero, skewing E3's
       hit ratios.  Residency stays (a warm cache is state, not
       accounting). *)
    Fs.Ffs.reset_counters f;
    Device.Dram.reset_stats t.dram;
    Probe.reset ());
  t.accounted_j <- 0.0;
  t.last_account <- Engine.now t.engine;
  t.errors <- 0

(* --- Trace application ------------------------------------------------------------ *)

let p_ops = Probe.counter "machine.ops"
let p_op_errors = Probe.counter "machine.op_errors"
let p_faults = Probe.counter "machine.faults"
let p_read_us = Probe.summary "machine.read_latency_us"
let p_write_us = Probe.summary "machine.write_latency_us"
let p_meta_us = Probe.summary "machine.meta_latency_us"
let ph_read_us = Probe.histogram "machine.read_hist_us"
let ph_write_us = Probe.histogram "machine.write_hist_us"

let span_or_error t result =
  match result with
  | Ok span -> span
  | Error _ ->
    t.errors <- t.errors + 1;
    Probe.incr p_op_errors;
    Time.span_zero

let apply t record =
  Probe.incr p_ops;
  let path = Fs.Vfs.path_of_file_id (Trace.Record.file record) in
  match record.Trace.Record.op with
  | Trace.Record.Create _ -> span_or_error t (fs_create t path)
  | Trace.Record.Delete _ -> span_or_error t (fs_unlink t path)
  | Trace.Record.Truncate { size; _ } -> span_or_error t (fs_truncate t path ~size)
  | Trace.Record.Read { offset; bytes; _ } ->
    span_or_error t (fs_read t path ~offset ~bytes)
  | Trace.Record.Write { offset; bytes; _ } ->
    let create_span =
      if fs_exists t path then Time.span_zero else span_or_error t (fs_create t path)
    in
    Time.span_add create_span (span_or_error t (fs_write t path ~offset ~bytes))

(* --- Fault injection --------------------------------------------------------- *)

type fault_outcome = {
  at : Time.t;
  kind : Fault.kind;
  survived_by : [ `Primary_battery | `Backup_battery | `Parity | `Nothing ];
  dirty_at_fault : int;
  blocks_lost : int;
  cold_restart : bool;
  remount : Storage.Manager.remount_report option;
  remount_span : Time.span;
  files_damaged : int;
}

let rec mkdir_parents t path =
  match String.rindex_opt path '/' with
  | Some i when i > 0 -> begin
    let parent = String.sub path 0 i in
    mkdir_parents t parent;
    match Fs.Memfs.mkdir t parent with
    | Ok _ | Error Fs.Fs_error.Eexist -> ()
    | Error e -> Fmt.failwith "crash recovery: mkdir %s: %a" parent Fs.Fs_error.pp e
  end
  | Some _ | None -> ()

(* Total loss of DRAM: remount the flash and rebuild the namespace over
   whatever survived.  File names and sizes carry across (a real layout
   stores per-block back-references and metadata logs on flash; the model
   keeps the bookkeeping in one place), but any block whose only copy sat
   in the write buffer is gone, and the file it belonged to is damaged. *)
let cold_crash t =
  let store, fs =
    match (t.store, t.fs) with
    | Some s, Mem fs -> (s, fs)
    | _ -> invalid_arg "Machine: fault injection requires solid-state storage"
  in
  let files = Fs.Memfs.enumerate fs in
  let fresh_store, span, report = Storage.Store.crash_and_remount store in
  let fresh_fs = Fs.Memfs.create_fs_store ~store:fresh_store () in
  let lost = ref 0 in
  let damaged = ref 0 in
  List.iter
    (fun (path, size, blocks) ->
      let survivors =
        List.filter (fun (_, b) -> Storage.Store.block_exists fresh_store b) blocks
      in
      let nlost = List.length blocks - List.length survivors in
      if nlost > 0 then incr damaged;
      lost := !lost + nlost;
      mkdir_parents fresh_fs path;
      match Fs.Memfs.adopt fresh_fs path ~size ~blocks:survivors with
      | Ok () -> ()
      | Error e -> Fmt.failwith "crash recovery: adopt %s: %a" path Fs.Fs_error.pp e)
    files;
  t.store <- Some fresh_store;
  t.fs <- Mem fresh_fs;
  t.fs_gen <- t.fs_gen + 1;
  (!lost, !damaged, report, span)

let inject_fault t kind =
  let store =
    match t.store with
    | Some s -> s
    | None -> invalid_arg "Machine: fault injection requires solid-state storage"
  in
  (* Settle the energy books first: battery state at the instant of the
     fault decides what survives. *)
  account t;
  let now = Engine.now t.engine in
  let dirty = (Storage.Store.stats store).Storage.Manager.dirty_blocks in
  Probe.incr p_faults;
  Probe.instant ~name:"fault" ~cat:"fault"
    ~args:
      [
        ("kind", Fmt.str "%a" Fault.pp_kind kind);
        ("dirty_blocks", string_of_int dirty);
      ]
    ~at:now ();
  let dram_backed = Device.Dram.battery_backed t.dram in
  let warm survived_by =
    {
      at = now;
      kind;
      survived_by;
      dirty_at_fault = dirty;
      blocks_lost = 0;
      cold_restart = false;
      remount = None;
      remount_span = Time.span_zero;
      files_damaged = 0;
    }
  in
  let cold () =
    let blocks_lost, files_damaged, report, remount_span = cold_crash t in
    {
      at = now;
      kind;
      survived_by = `Nothing;
      dirty_at_fault = dirty;
      blocks_lost;
      cold_restart = true;
      remount = Some report;
      remount_span;
      files_damaged;
    }
  in
  match kind with
  | Fault.Power_failure -> (
    (* External power vanishes.  Battery-backed DRAM rides it out on
       whichever battery holds; otherwise the machine cold-restarts when
       power returns. *)
    match Recovery.survivor ~battery:t.battery ~dram_battery_backed:dram_backed with
    | (`Primary_battery | `Backup_battery) as by -> warm by
    | `Nothing ->
      let o = cold () in
      Device.Battery.recharge t.battery;
      o)
  | Fault.Battery_swap ->
    (* The primary is pulled; only the lithium backup can carry DRAM
       through the gap.  Either way a fresh primary goes in afterwards. *)
    if dram_backed && Device.Battery.backup_joules t.battery > 0.0 then begin
      Device.Battery.swap_primary t.battery;
      warm `Backup_battery
    end
    else begin
      let o = cold () in
      Device.Battery.swap_primary t.battery;
      o
    end
  | Fault.Battery_depletion ->
    (* The gauge lied: the primary dies abruptly.  The backup (if any)
       keeps DRAM alive until the user swaps; with no backup the machine
       is down until external power returns. *)
    Device.Battery.deplete_primary t.battery;
    if dram_backed && Device.Battery.backup_joules t.battery > 0.0 then
      warm `Backup_battery
    else begin
      let o = cold () in
      Device.Battery.recharge t.battery;
      o
    end
  | Fault.Card_eject { card; surprise } -> (
    (* A card leaves the machine.  Power and DRAM are fine — this is a
       storage fault, survivable only by a parity-striped array (the
       array itself rejects anything else). *)
    match store with
    | Storage.Store.Striped a ->
      let r = Storage.Array.eject_card ~surprise a ~card in
      ignore (r : Storage.Array.eject_report);
      (* [blocks_lost] stays 0: even the buffered blocks dropped with the
         card's write buffer remain reconstructible from parity. *)
      warm `Parity
    | Storage.Store.Single _ ->
      invalid_arg "Machine: card eject requires a striped parity array")
  | Fault.Card_reinsert { card } -> (
    match store with
    | Storage.Store.Striped a ->
      Storage.Array.reinsert_card a ~card;
      warm `Parity
    | Storage.Store.Single _ ->
      invalid_arg "Machine: card reinsert requires a striped parity array")

let pp_fault_outcome ppf o =
  Fmt.pf ppf "%a at %a: %s, dirty=%d lost=%d" Fault.pp_kind o.kind Time.pp o.at
    (match o.survived_by with
    | `Primary_battery -> "rode out on primary"
    | `Backup_battery -> "rode out on backup"
    | `Parity -> "survived on parity"
    | `Nothing -> "cold restart")
    o.dirty_at_fault o.blocks_lost;
  match o.remount with
  | Some r ->
    Fmt.pf ppf " (remount %a in %a, %d files damaged)"
      Storage.Manager.pp_remount_report r Time.pp_span o.remount_span o.files_damaged
  | None -> ()

type result = {
  ops_applied : int;
  op_errors : int;
  elapsed : Time.span;
  busy : Time.span;
  read_latency : Stat.Summary.t;
  write_latency : Stat.Summary.t;
  meta_latency : Stat.Summary.t;
  read_hist_us : Stat.Histogram.t;
  write_hist_us : Stat.Histogram.t;
  energy_j : float;
  battery_fraction_left : float;
  manager_stats : Storage.Manager.stats option;
  lifetime_years : float option;
  fault_log : fault_outcome list;
}

(* --- Replay ----------------------------------------------------------------

   One driver serves every trace.  [run_compiled] hands it a pre-lowered
   trace; [run_seq] lowers its stream a chunk at a time, so a streamed
   trace is held one chunk at a time.  The loop indexes the
   compiled arrays instead of matching on record variants, and reaches
   memfs files through a pre-resolved route to "/data" instead of
   formatting and parsing a path per record — the [_in] operations charge
   exactly what the path walk charges.  Anything the route cannot serve
   (disk-backed file systems, a machine without "/data") goes through
   [apply] per record. *)

module Compiled = Trace.Replay.Compiled

(* Indexed by dispatch tag. *)
let tag_label = [| "op.create"; "op.write"; "op.read"; "op.truncate"; "op.delete" |]

(* [feed chunk] calls [chunk] on each piece of the trace in order. *)
let replay ?(drain = Time.span_s 120.0) ?(faults = []) t feed =
  let started = Engine.now t.engine in
  let fault_log = ref [] in
  List.iter
    (fun e ->
      let at = Time.add started e.Fault.after in
      ignore
        (Engine.schedule t.engine ~at (fun _ ->
             fault_log := inject_fault t e.Fault.kind :: !fault_log)))
    faults;
  let offset_ns = Time.to_ns started in
  let read_latency = Stat.Summary.create () in
  let write_latency = Stat.Summary.create () in
  let meta_latency = Stat.Summary.create () in
  let read_hist_us = Stat.Histogram.create () in
  let write_hist_us = Stat.Histogram.create () in
  let busy = ref Time.span_zero in
  let ops = ref 0 in
  (* The last record's instant bounds the drain window.  The periodic power
     accounting (an OS housekeeping task) cannot take an [until] bound up
     front, since a streamed trace's length is unknown until it ends; the
     chain stops rescheduling once the drain is done. *)
  let last_at = ref started in
  let accounting_done = ref false in
  let rec account_tick engine =
    if not !accounting_done then begin
      account t;
      ignore (Engine.schedule_after engine ~after:(Time.span_s 60.0) account_tick)
    end
  in
  ignore (Engine.schedule_after t.engine ~after:(Time.span_s 60.0) account_tick);
  (* The pre-resolved route to "/data".  A cold restart replaces the file
     system out from under us ([t.fs_gen] bumps), so the route is looked up
     lazily against the current generation; resolution is side-effect-free,
     so rebuilding mid-run cannot perturb the meters. *)
  let route_gen = ref (-1) in
  let route_dir = ref None in
  let data_dir m =
    if !route_gen <> t.fs_gen then begin
      route_dir :=
        (match Fs.Memfs.route m "/data" with Ok d -> Some d | Error _ -> None);
      route_gen := t.fs_gen
    end;
    !route_dir
  in
  (* Leaf names under "/data" ("f<id>"), interned for this replay so the
     loop formats each file's name once.  Owned by the call: concurrent
     replays on other domains share nothing. *)
  let names = ref [||] in
  let leaf_name id =
    if id < 0 then "f" ^ string_of_int id
    else begin
      if id >= Array.length !names then begin
        let bigger = Array.make (max (id + 1) ((2 * Array.length !names) + 64)) "" in
        Array.blit !names 0 bigger 0 (Array.length !names);
        names := bigger
      end;
      if String.length !names.(id) = 0 then !names.(id) <- "f" ^ string_of_int id;
      !names.(id)
    end
  in
  feed (fun (c : Compiled.t) ->
      let at_ns = c.Compiled.at_ns
      and tags = c.Compiled.tag
      and files = c.Compiled.file
      and arg1 = c.Compiled.arg1
      and arg2 = c.Compiled.arg2 in
      for i = 0 to c.Compiled.n - 1 do
        (* Run every engine event due before the record, then apply it at
           its instant — or at once, if the previous operation ran past it:
           a foreground operation cannot begin before its predecessor
           completed. *)
        let at = Time.of_ns (at_ns.(i) + offset_ns) in
        if Time.( < ) (Engine.now t.engine) at then Engine.run_until t.engine at;
        last_at := at;
        let op_start = Engine.now t.engine in
        let tag = tags.(i) in
        let span =
          match t.fs with
          | Mem m -> begin
            match data_dir m with
            | Some dir ->
              Probe.incr p_ops;
              let name = leaf_name files.(i) in
              if tag = Compiled.tag_write then begin
                let create_span =
                  if Fs.Memfs.exists_in m dir name then Time.span_zero
                  else span_or_error t (Fs.Memfs.create_in m dir name)
                in
                Time.span_add create_span
                  (span_or_error t
                     (Fs.Memfs.write_in m dir name ~offset:arg1.(i) ~bytes:arg2.(i)))
              end
              else if tag = Compiled.tag_read then
                span_or_error t
                  (Fs.Memfs.read_in m dir name ~offset:arg1.(i) ~bytes:arg2.(i))
              else if tag = Compiled.tag_create then
                span_or_error t (Fs.Memfs.create_in m dir name)
              else if tag = Compiled.tag_truncate then
                span_or_error t (Fs.Memfs.truncate_in m dir name ~size:arg1.(i))
              else span_or_error t (Fs.Memfs.unlink_in m dir name)
            | None -> apply t (Compiled.record c i)
          end
          | Disk_fs _ -> apply t (Compiled.record c i)
        in
        incr ops;
        busy := Time.span_add !busy span;
        let us = Time.span_to_us span in
        if Probe.timeline_enabled () then
          Probe.span ~name:tag_label.(tag) ~cat:"op"
            ~args:[ ("file", string_of_int files.(i)) ]
            ~start:op_start ~finish:(Time.add op_start span) ();
        if tag = Compiled.tag_read then begin
          Stat.Summary.observe read_latency us;
          Stat.Histogram.observe read_hist_us us;
          Probe.observe p_read_us us;
          Probe.observe_hist ph_read_us us
        end
        else if tag = Compiled.tag_write then begin
          Stat.Summary.observe write_latency us;
          Stat.Histogram.observe write_hist_us us;
          Probe.observe p_write_us us;
          Probe.observe_hist ph_write_us us
        end
        else begin
          Stat.Summary.observe meta_latency us;
          Probe.observe p_meta_us us
        end;
        (* Closed loop: the (single-threaded) client does not issue its
           next operation until this one completed. *)
        Engine.run_until t.engine (Time.add (Engine.now t.engine) span)
      done);
  Engine.run_until t.engine (Time.add !last_at drain);
  accounting_done := true;
  account t;
  let elapsed = Time.diff (Engine.now t.engine) started in
  let manager_stats = Option.map Storage.Store.stats t.store in
  let lifetime_years =
    (* On an array the machine dies with its first worn-out card: the
       extrapolated lifetime is the minimum over cards. *)
    match t.store with
    | Some s ->
      Some
        (Array.fold_left
           (fun acc m ->
             Float.min acc
               (Lifetime.of_run ~flash:(Storage.Manager.flash m)
                  ~stats:(Storage.Manager.stats m)
                  ~evenness:(Storage.Manager.wear_evenness m) ~elapsed))
           infinity (Storage.Store.managers s))
    | None -> None
  in
  {
    ops_applied = !ops;
    op_errors = t.errors;
    elapsed;
    busy = !busy;
    read_latency;
    write_latency;
    meta_latency;
    read_hist_us;
    write_hist_us;
    energy_j = total_energy t;
    battery_fraction_left = Device.Battery.fraction_remaining t.battery;
    manager_stats;
    lifetime_years;
    fault_log = List.rev !fault_log;
  }

let run_compiled ?drain ?faults t c = replay ?drain ?faults t (fun chunk -> chunk c)

let run_seq ?drain ?faults t records =
  replay ?drain ?faults t (fun chunk ->
      Seq.iter chunk (Compiled.chunks records))

let run ?drain ?faults t records = run_seq ?drain ?faults t (List.to_seq records)

(* --- Multi-seed replication --------------------------------------------------- *)

type ci = { mean : float; half_width : float; n : int }

type replicated = {
  runs : (int * result) list;
  read_us : ci;
  write_us : ci;
  energy_j : ci;
}

let ci_of values =
  let n = List.length values in
  let mean = List.fold_left ( +. ) 0.0 values /. float_of_int n in
  let half_width =
    if n < 2 then 0.0
    else begin
      let ss =
        List.fold_left (fun acc v -> acc +. ((v -. mean) *. (v -. mean))) 0.0 values
      in
      let stddev = sqrt (ss /. float_of_int (n - 1)) in
      (* Normal-approximation 95% interval; fine for the "is the spread
         small relative to the effect" question replication answers here. *)
      1.96 *. stddev /. sqrt (float_of_int n)
    end
  in
  { mean; half_width; n }

let run_replicated ?jobs ~seeds run =
  if seeds = [] then invalid_arg "Machine.run_replicated: no seeds";
  (* Each replica builds its own machine from its seed inside [run]; the
     replicas share nothing, so the pool map is deterministic in [seeds]
     order at any job count. *)
  let runs = Pool.run_map ?jobs (fun seed -> (seed, run ~seed)) seeds in
  let stat f = ci_of (List.map (fun (_, r) -> f r) runs) in
  {
    runs;
    read_us = stat (fun r -> Stat.Summary.mean r.read_latency);
    write_us = stat (fun r -> Stat.Summary.mean r.write_latency);
    energy_j = stat (fun r -> r.energy_j);
  }

let pp_ci ppf c = Fmt.pf ppf "%.1f ±%.1f (n=%d)" c.mean c.half_width c.n

let pp_replicated ppf r =
  Fmt.pf ppf "@[<v>read us: %a@,write us: %a@,energy J: %a@]" pp_ci r.read_us pp_ci
    r.write_us pp_ci r.energy_j

let pp_result ppf r =
  Fmt.pf ppf
    "@[<v>ops=%d errors=%d elapsed=%a busy=%a@,read: %a@,write: %a@,meta: %a@,\
     energy=%.1fJ battery=%.1f%%%a@]"
    r.ops_applied r.op_errors Time.pp_span r.elapsed Time.pp_span r.busy
    Stat.Summary.pp r.read_latency Stat.Summary.pp r.write_latency Stat.Summary.pp
    r.meta_latency r.energy_j
    (100.0 *. r.battery_fraction_left)
    (Fmt.list ~sep:Fmt.nop (fun ppf o -> Fmt.pf ppf "@,fault: %a" pp_fault_outcome o))
    r.fault_log
