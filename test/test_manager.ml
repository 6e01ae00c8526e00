open Sim

(* A small machine's manager: 8-sector segments. *)
let config ?(buffer_blocks = 16) ?(delay = 30.0) ?(cleaner = Storage.Cleaner.Cost_benefit)
    ?(wear = Storage.Wear.Dynamic) ?(banking = Storage.Banks.Unified) ?diff_log () =
  {
    Storage.Manager.default_config with
    Storage.Manager.segment_sectors = 8;
    buffer =
      {
        Storage.Write_buffer.capacity_blocks = buffer_blocks;
        writeback_delay = Time.span_s delay;
        refresh_on_rewrite = true;
      };
    cleaner;
    wear;
    banking;
    diff_log;
  }

(* A small machine: 256KB flash, 2 banks. *)
let make ?(flash_kib = 256) ?(nbanks = 2) ?buffer_blocks ?delay ?cleaner ?wear ?banking
    ?(endurance = 1_000) ?diff_log () =
  let engine = Engine.create () in
  let flash =
    Device.Flash.create
      (Device.Flash.config ~nbanks ~endurance_override:endurance
         ~size_bytes:(flash_kib * 1024) ())
  in
  let dram = Device.Dram.create ~size_bytes:Units.mib ~battery_backed:true () in
  let cfg = config ?buffer_blocks ?delay ?cleaner ?wear ?banking ?diff_log () in
  (engine, Storage.Manager.create cfg ~engine ~flash ~dram, flash)

let advance engine span = Engine.run_until engine (Time.add (Engine.now engine) span)

let test_create_validation () =
  let engine = Engine.create () in
  let flash = Device.Flash.create (Device.Flash.config ~nbanks:2 ~size_bytes:(64 * 1024) ()) in
  let dram = Device.Dram.create ~size_bytes:Units.mib ~battery_backed:true () in
  let bad cfg msg =
    Alcotest.check_raises msg (Invalid_argument ("Manager.create: " ^ msg)) (fun () ->
        ignore (Storage.Manager.create cfg ~engine ~flash ~dram))
  in
  bad
    { Storage.Manager.default_config with Storage.Manager.segment_sectors = 100 }
    "segment does not fit in a bank";
  (* 64 KB over 2 banks in 32-sector segments is only 4 segments. *)
  bad
    { Storage.Manager.default_config with Storage.Manager.segment_sectors = 32 }
    "flash too small for the cleaning watermarks"

let test_write_read_free_cycle () =
  let _engine, m, _ = make () in
  let b = Storage.Manager.alloc m in
  let wspan = Storage.Manager.write_block m b in
  Alcotest.(check bool) "buffered write is DRAM-fast" true (Time.span_to_us wspan < 100.0);
  let rspan = Storage.Manager.read_block m b in
  Alcotest.(check bool) "read of dirty block is DRAM-fast" true
    (Time.span_to_us rspan < 100.0);
  let stats = Storage.Manager.stats m in
  Alcotest.(check int) "one client write" 1 stats.Storage.Manager.client_writes;
  Alcotest.(check int) "dirty" 1 stats.Storage.Manager.dirty_blocks;
  Storage.Manager.free_block m b;
  let stats = Storage.Manager.stats m in
  Alcotest.(check int) "cancelled" 1 stats.Storage.Manager.cancelled_blocks;
  Alcotest.check_raises "freed block unusable"
    (Invalid_argument (Printf.sprintf "Manager: unknown block %d" b)) (fun () ->
      ignore (Storage.Manager.read_block m b))

let test_flush_on_deadline () =
  let engine, m, flash = make ~delay:5.0 () in
  let b = Storage.Manager.alloc m in
  ignore (Storage.Manager.write_block m b);
  Alcotest.(check int) "nothing programmed yet" 0 (Device.Flash.programs flash);
  advance engine (Time.span_s 10.0);
  Alcotest.(check int) "flushed after deadline" 1 (Device.Flash.programs flash);
  Alcotest.(check bool) "block now in flash" true
    (Storage.Manager.segment_of_block m b <> None);
  (* Reading it now touches flash. *)
  let rspan = Storage.Manager.read_block m b in
  Alcotest.(check bool) "flash-speed read" true (Time.span_to_us rspan > 10.0)

let test_absorption () =
  let engine, m, flash = make ~delay:5.0 () in
  let b = Storage.Manager.alloc m in
  for _ = 1 to 10 do
    ignore (Storage.Manager.write_block m b)
  done;
  advance engine (Time.span_s 60.0);
  (* Ten writes, one program. *)
  Alcotest.(check int) "one program for ten writes" 1 (Device.Flash.programs flash);
  let stats = Storage.Manager.stats m in
  Alcotest.(check int) "absorbed" 9 stats.Storage.Manager.absorbed_writes;
  Alcotest.(check (float 1e-9)) "reduction 90%" 0.9 stats.Storage.Manager.write_reduction

let test_cancellation_avoids_flash () =
  let engine, m, flash = make ~delay:5.0 () in
  let b = Storage.Manager.alloc m in
  ignore (Storage.Manager.write_block m b);
  Storage.Manager.free_block m b;
  advance engine (Time.span_s 60.0);
  Alcotest.(check int) "never reached flash" 0 (Device.Flash.programs flash)

let test_write_through_mode () =
  let _engine, m, flash = make ~buffer_blocks:0 () in
  let b = Storage.Manager.alloc m in
  let span = Storage.Manager.write_block m b in
  Alcotest.(check int) "programmed immediately" 1 (Device.Flash.programs flash);
  Alcotest.(check bool) "client pays flash latency" true (Time.span_to_ms span > 1.0)

let test_overwrite_supersedes_flash_copy () =
  let engine, m, _ = make ~delay:1.0 () in
  let b = Storage.Manager.alloc m in
  ignore (Storage.Manager.write_block m b);
  advance engine (Time.span_s 5.0);
  let seg1 = Option.get (Storage.Manager.segment_of_block m b) in
  ignore (Storage.Manager.write_block m b);
  Alcotest.(check bool) "flash copy superseded" true
    (Storage.Manager.segment_of_block m b = None);
  advance engine (Time.span_s 5.0);
  let seg2 = Option.get (Storage.Manager.segment_of_block m b) in
  ignore (seg1, seg2);
  let stats = Storage.Manager.stats m in
  Alcotest.(check int) "two programs" 2 stats.Storage.Manager.blocks_flushed

let test_cleaning_triggers_and_preserves () =
  (* Fill flash with live+dead data until cleaning must run. *)
  let engine, m, flash = make ~flash_kib:64 ~delay:0.5 ~buffer_blocks:4 () in
  (* 64KB = 128 sectors = 16 segments of 8. Write 100 blocks, rewrite them
     to create garbage, forcing cleaning. *)
  let blocks = Array.init 60 (fun _ -> Storage.Manager.alloc m) in
  Array.iter (fun b -> ignore (Storage.Manager.write_block m b)) blocks;
  advance engine (Time.span_s 5.0);
  Array.iter (fun b -> ignore (Storage.Manager.write_block m b)) blocks;
  advance engine (Time.span_s 5.0);
  Array.iter (fun b -> ignore (Storage.Manager.write_block m b)) blocks;
  advance engine (Time.span_s 5.0);
  let stats = Storage.Manager.stats m in
  Alcotest.(check bool) "cleaning ran" true (stats.Storage.Manager.cleanings > 0);
  Alcotest.(check bool) "erases happened" true (Device.Flash.erases flash > 0);
  (* Every block still lives exactly once. *)
  Alcotest.(check int) "all live" 60 stats.Storage.Manager.live_blocks;
  Array.iter
    (fun b ->
      Alcotest.(check bool) "block still mapped" true
        (Storage.Manager.segment_of_block m b <> None))
    blocks

let test_out_of_space () =
  let _engine, m, _ = make ~flash_kib:32 ~buffer_blocks:0 () in
  (* 32KB = 64 sectors; write-through fills them with live data. *)
  Alcotest.check_raises "out of space" Storage.Manager.Out_of_space (fun () ->
      for _ = 1 to 70 do
        let b = Storage.Manager.alloc m in
        ignore (Storage.Manager.write_block m b)
      done)

(* The cleaner survives an exception.  A card of blocks written through
   fills until a write raises [Out_of_space] from inside a cleaning pass:
   the pass copies its victim's survivors out and finds no free segment to
   open for them.  The half-copied victim must stay a cleaning candidate,
   so the scans of [Scan_oracle] agree with every index then.  Freeing
   every block leaves segments with nothing to copy, so the next writes
   must clean again and succeed, and the scans must agree again; a cleaner
   left flagged as running would refuse every pass and fail them. *)
let test_out_of_space_inside_cleaning () =
  let _engine, m, _ = make ~flash_kib:32 ~buffer_blocks:0 () in
  let agree what =
    match Scan_oracle.check (config ~buffer_blocks:0 ()) m with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "%s: %s" what msg
  in
  let write () =
    let b = Storage.Manager.alloc m in
    ignore (Storage.Manager.write_block m b);
    b
  in
  let written = ref [] in
  (match
     for _ = 1 to 70 do
       written := write () :: !written
     done
   with
  | () -> Alcotest.fail "the card never filled"
  | exception Storage.Manager.Out_of_space -> ());
  agree "after Out_of_space";
  let cleanings () = (Storage.Manager.stats m).Storage.Manager.cleanings in
  let before = cleanings () in
  List.iter (Storage.Manager.free_block m) !written;
  for _ = 1 to 8 do
    match write () with
    | _ -> ()
    | exception Storage.Manager.Out_of_space ->
      Alcotest.fail "a write after freeing every block ran out of space"
  done;
  Alcotest.(check bool) "cleaning ran again" true (cleanings () > before);
  agree "after freeing every block and writing 8 more"

let test_load_cold_placement_partitioned () =
  let _engine, m, _ =
    make ~nbanks:2 ~banking:(Storage.Banks.Partitioned { write_banks = 1 }) ()
  in
  (* Cold loads land in the read-mostly banks (bank >= 1). *)
  for _ = 1 to 20 do
    let b = Storage.Manager.alloc m in
    Storage.Manager.load_cold m b;
    let seg = Option.get (Storage.Manager.segment_of_block m b) in
    let segs_per_bank = Storage.Manager.nsegments m / 2 in
    Alcotest.(check bool) "cold in read bank" true (seg >= segs_per_bank)
  done;
  (* Fresh writes land in the write bank. *)
  let b = Storage.Manager.alloc m in
  ignore (Storage.Manager.write_block m b);
  ignore (Storage.Manager.flush_all m);
  let seg = Option.get (Storage.Manager.segment_of_block m b) in
  Alcotest.(check bool) "fresh in write bank" true
    (seg < Storage.Manager.nsegments m / 2)

let test_flush_all () =
  let _engine, m, flash = make () in
  let blocks = List.init 5 (fun _ -> Storage.Manager.alloc m) in
  List.iter (fun b -> ignore (Storage.Manager.write_block m b)) blocks;
  let span = Storage.Manager.flush_all m in
  Alcotest.(check int) "all programmed" 5 (Device.Flash.programs flash);
  Alcotest.(check bool) "took flash time" true (Time.span_to_ms span > 5.0);
  Alcotest.(check int) "buffer empty" 0
    (Storage.Manager.stats m).Storage.Manager.dirty_blocks

(* Hot data stays in DRAM because a rewrite restarts the block's
   deadline: rewritten every 1 s under a 2 s delay, a block never reaches
   flash while the rewrites continue, and flushes one delay after the
   last.  A block written once flushes at its deadline. *)
let test_hot_blocks_stay_in_dram () =
  let engine, m, flash = make ~delay:2.0 () in
  let hot = Storage.Manager.alloc m in
  let cold = Storage.Manager.alloc m in
  ignore (Storage.Manager.write_block m cold);
  let on_flash b = Storage.Manager.segment_of_block m b <> None in
  let at_ms ms = Time.of_ns (ms * 1_000_000) in
  for i = 0 to 9 do
    ignore (Storage.Manager.write_block m hot);
    if i = 1 then begin
      Engine.run_until engine (at_ms 1_999);
      Alcotest.(check bool) "cold dirty just before its deadline" false (on_flash cold)
    end;
    Engine.run_until engine (at_ms ((i + 1) * 1_000));
    if i = 1 then
      Alcotest.(check bool) "cold flushed at its deadline" true (on_flash cold);
    Alcotest.(check bool) (Printf.sprintf "hot dirty at %d s" (i + 1)) true
      (Storage.Manager.block_is_dirty m hot);
    Alcotest.(check bool) (Printf.sprintf "hot not on flash at %d s" (i + 1)) false
      (on_flash hot)
  done;
  Alcotest.(check int) "only the cold block programmed" 1 (Device.Flash.programs flash);
  (* The last rewrite was at 9 s, so the deadline is 11 s. *)
  Engine.run_until engine (at_ms 10_999);
  Alcotest.(check bool) "hot dirty just before the delay" true
    (Storage.Manager.block_is_dirty m hot);
  Engine.run_until engine (at_ms 11_000);
  Alcotest.(check bool) "hot flushed one delay after the last rewrite" true
    (on_flash hot);
  let stats = Storage.Manager.stats m in
  Alcotest.(check int) "two flushes" 2 stats.Storage.Manager.blocks_flushed;
  Alcotest.(check int) "nine rewrites absorbed" 9 stats.Storage.Manager.absorbed_writes;
  Alcotest.(check int) "no retention bookkeeping" 0 stats.Storage.Manager.hot_retained

let test_wear_leveling_reduces_spread () =
  (* Hammer a hot set; static leveling should keep the erase spread below
     the none policy's. *)
  let run wear =
    let engine, m, _ =
      make ~flash_kib:32 ~buffer_blocks:4 ~delay:0.2 ~wear ~endurance:100_000 ()
    in
    (* 8 cold blocks pinning segments + hot rewrites *)
    let cold = Array.init 24 (fun _ -> Storage.Manager.alloc m) in
    Array.iter (fun b -> Storage.Manager.load_cold m b) cold;
    let hot = Array.init 8 (fun _ -> Storage.Manager.alloc m) in
    for _ = 1 to 300 do
      Array.iter (fun b -> ignore (Storage.Manager.write_block m b)) hot;
      advance engine (Time.span_s 1.0)
    done;
    let e = Storage.Manager.wear_evenness m in
    e.Storage.Wear.max_erases - e.Storage.Wear.min_erases
  in
  let spread_none = run Storage.Wear.None_ in
  let spread_static = run (Storage.Wear.Static { spread_threshold = 4 }) in
  Alcotest.(check bool)
    (Printf.sprintf "static spread (%d) < none spread (%d)" spread_static spread_none)
    true (spread_static < spread_none)

let test_watermark_flush () =
  (* A long deadline but a 50% occupancy watermark: crossing it starts
     background flushing well before any deadline expires. *)
  let engine = Engine.create () in
  let flash =
    Device.Flash.create (Device.Flash.config ~nbanks:2 ~size_bytes:(256 * 1024) ())
  in
  let dram = Device.Dram.create ~size_bytes:Units.mib ~battery_backed:true () in
  let cfg =
    {
      Storage.Manager.default_config with
      Storage.Manager.segment_sectors = 8;
      flush_watermark = Some 0.5;
      buffer =
        {
          Storage.Write_buffer.capacity_blocks = 16;
          writeback_delay = Time.span_s 1000.0;
          refresh_on_rewrite = true;
        };
    }
  in
  let m = Storage.Manager.create cfg ~engine ~flash ~dram in
  for _ = 1 to 12 do
    let b = Storage.Manager.alloc m in
    ignore (Storage.Manager.write_block m b)
  done;
  advance engine (Time.span_s 5.0);
  let stats = Storage.Manager.stats m in
  Alcotest.(check bool) "flushed ahead of deadlines" true
    (stats.Storage.Manager.blocks_flushed > 0);
  Alcotest.(check bool) "occupancy brought under the watermark" true
    (stats.Storage.Manager.dirty_blocks <= 8);
  (* Without the watermark, nothing would have flushed yet. *)
  let engine2 = Engine.create () in
  let flash2 =
    Device.Flash.create (Device.Flash.config ~nbanks:2 ~size_bytes:(256 * 1024) ())
  in
  let dram2 = Device.Dram.create ~size_bytes:Units.mib ~battery_backed:true () in
  let m2 =
    Storage.Manager.create
      { cfg with Storage.Manager.flush_watermark = None }
      ~engine:engine2 ~flash:flash2 ~dram:dram2
  in
  for _ = 1 to 12 do
    let b = Storage.Manager.alloc m2 in
    ignore (Storage.Manager.write_block m2 b)
  done;
  advance engine2 (Time.span_s 5.0);
  Alcotest.(check int) "control: all still buffered" 12
    (Storage.Manager.stats m2).Storage.Manager.dirty_blocks

let test_reset_traffic () =
  let engine, m, flash = make ~delay:0.5 () in
  let b = Storage.Manager.alloc m in
  ignore (Storage.Manager.write_block m b);
  advance engine (Time.span_s 2.0);
  Storage.Manager.reset_traffic m;
  let stats = Storage.Manager.stats m in
  Alcotest.(check int) "writes reset" 0 stats.Storage.Manager.client_writes;
  Alcotest.(check int) "flush reset" 0 stats.Storage.Manager.blocks_flushed;
  Alcotest.(check int) "device reset" 0 (Device.Flash.programs flash);
  (* Placement survives the reset. *)
  Alcotest.(check bool) "mapping intact" true (Storage.Manager.segment_of_block m b <> None)

(* Device programs must exactly account for the manager's flush, clean and
   cold-load traffic: nothing programs flash except through those paths. *)
let prop_program_accounting =
  QCheck.Test.make ~name:"manager: device programs = flushed + cleaned + cold" ~count:40
    QCheck.(list_of_size (Gen.int_range 10 100) (pair (int_bound 19) (int_bound 4)))
    (fun ops ->
      let engine, m, flash = make ~flash_kib:64 ~buffer_blocks:8 ~delay:1.0 () in
      let blocks = Array.init 20 (fun _ -> Storage.Manager.alloc m) in
      List.iter
        (fun (i, action) ->
          match action with
          | 0 | 1 -> ignore (Storage.Manager.write_block m blocks.(i))
          | 2 -> ignore (Storage.Manager.read_block m blocks.(i))
          | 3 -> advance engine (Time.span_s 2.0)
          | _ ->
            (* Cold loads need a block with no data yet: use a fresh one. *)
            Storage.Manager.load_cold m (Storage.Manager.alloc m))
        ops;
      ignore (Storage.Manager.flush_all m);
      let stats = Storage.Manager.stats m in
      Device.Flash.programs flash
      = stats.Storage.Manager.blocks_flushed + stats.Storage.Manager.blocks_cleaned
        + stats.Storage.Manager.cold_loads
      && Device.Flash.bytes_programmed flash = 512 * Device.Flash.programs flash)

(* The file system is consistent at *every* instant, not just at rest:
   stop the clock mid-flush, mid-cleaning, and check. *)
let test_consistency_mid_flight () =
  let engine = Engine.create () in
  let flash =
    Device.Flash.create (Device.Flash.config ~nbanks:2 ~size_bytes:(128 * 1024) ())
  in
  let dram = Device.Dram.create ~size_bytes:Units.mib ~battery_backed:true () in
  let cfg =
    {
      Storage.Manager.default_config with
      Storage.Manager.segment_sectors = 8;
      buffer =
        {
          Storage.Write_buffer.capacity_blocks = 16;
          writeback_delay = Time.span_s 1.0;
          refresh_on_rewrite = false;
        };
    }
  in
  let m = Storage.Manager.create cfg ~engine ~flash ~dram in
  let fs = Fs.Memfs.create_fs ~manager:m () in
  let rng = Rng.create ~seed:41 in
  for round = 1 to 60 do
    let path = Printf.sprintf "/f%d" (Rng.int rng 8) in
    (match Fs.Memfs.write fs path ~offset:0 ~bytes:(512 * (1 + Rng.int rng 6)) with
    | Ok _ -> ()
    | Error Fs.Fs_error.Enoent ->
      ignore (Fs.Memfs.create fs path);
      ignore (Fs.Memfs.write fs path ~offset:0 ~bytes:512)
    | Error e -> Alcotest.failf "write: %a" Fs.Fs_error.pp e);
    if Rng.bernoulli rng ~p:0.2 then ignore (Fs.Memfs.unlink fs path);
    (* Advance by an odd sub-second step so we land between flush events. *)
    advance engine (Time.span_ms (50.0 +. float_of_int (Rng.int rng 900)));
    match Fs.Memfs.check fs with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "round %d: fsck: %s" round msg
  done

let prop_no_data_loss_random_ops =
  QCheck.Test.make ~name:"manager: random ops never lose a live block" ~count:30
    QCheck.(list_of_size (Gen.int_range 10 120) (pair (int_bound 19) (int_bound 3)))
    (fun ops ->
      let engine, m, _ = make ~flash_kib:64 ~buffer_blocks:8 ~delay:1.0 () in
      let blocks = Array.init 20 (fun _ -> Storage.Manager.alloc m) in
      let live = Array.make 20 false in
      List.iter
        (fun (i, action) ->
          match action with
          | 0 | 1 ->
            ignore (Storage.Manager.write_block m blocks.(i));
            live.(i) <- true
          | 2 ->
            if live.(i) then ignore (Storage.Manager.read_block m blocks.(i))
          | _ -> advance engine (Time.span_s 2.0))
        ops;
      ignore (Storage.Manager.flush_all m);
      (* Every written block has exactly one live flash home. *)
      Array.for_all2
        (fun b is_live ->
          if is_live then Storage.Manager.segment_of_block m b <> None else true)
        blocks live)

(* --- Page-differential logging -------------------------------------------- *)

let diff_cfg ?(delta_bytes = 64) ?(merge_len = 4) () =
  { Storage.Diff_log.delta_bytes; merge_len }

let diff_stats_exn m =
  match Storage.Manager.diff_stats m with
  | Some s -> s
  | None -> Alcotest.fail "diff_stats: expected Some"

let test_diff_delta_traffic () =
  (* Write-through so every overwrite programs synchronously; huge merge
     threshold so the chain never folds. *)
  let _engine, m, flash =
    make ~buffer_blocks:0 ~diff_log:(diff_cfg ~merge_len:100 ()) ()
  in
  let full = Storage.Manager.block_bytes m in
  let b = Storage.Manager.alloc m in
  ignore (Storage.Manager.write_block m b);
  Alcotest.(check int) "first write programs a full page" full
    (Device.Flash.bytes_programmed flash);
  for _ = 1 to 3 do
    ignore (Storage.Manager.write_block m b)
  done;
  Alcotest.(check int) "overwrites program 64-byte deltas" (full + (3 * 64))
    (Device.Flash.bytes_programmed flash);
  Alcotest.(check int) "chain holds three deltas" 3
    (Storage.Manager.delta_chain_length m b);
  let s = diff_stats_exn m in
  Alcotest.(check int) "deltas_flushed" 3 s.Storage.Diff_log.deltas_flushed;
  Alcotest.(check int) "delta bytes" (3 * 64) s.Storage.Diff_log.delta_bytes_flushed;
  Alcotest.(check int) "no merge yet" 0 s.Storage.Diff_log.merges;
  (* The durable home reported is still the base page. *)
  Alcotest.(check bool) "base placement reported" true
    (Storage.Manager.location_of_block m b <> None)

let test_diff_read_reassembly () =
  let _engine, m, _ =
    make ~buffer_blocks:0 ~diff_log:(diff_cfg ~merge_len:100 ()) ()
  in
  let b = Storage.Manager.alloc m in
  ignore (Storage.Manager.write_block m b);
  let base_read = Storage.Manager.read_block m b in
  for _ = 1 to 3 do
    ignore (Storage.Manager.write_block m b)
  done;
  let chained_read = Storage.Manager.read_block m b in
  Alcotest.(check bool) "reassembly costs more than a base read" true
    (Time.span_to_us chained_read > Time.span_to_us base_read);
  let s = diff_stats_exn m in
  Alcotest.(check int) "one reassembled read" 1 s.Storage.Diff_log.reassembled_reads

let test_diff_merge_at_threshold () =
  let _engine, m, _ = make ~buffer_blocks:0 ~diff_log:(diff_cfg ~merge_len:3 ()) () in
  let b = Storage.Manager.alloc m in
  ignore (Storage.Manager.write_block m b);
  for _ = 1 to 3 do
    ignore (Storage.Manager.write_block m b)
  done;
  (* The third delta trips merge_len = 3: the chain folds back into one
     full page on the same flush cursor. *)
  let s = diff_stats_exn m in
  Alcotest.(check int) "one merge" 1 s.Storage.Diff_log.merges;
  Alcotest.(check int) "chain folded" 0 (Storage.Manager.delta_chain_length m b);
  Alcotest.(check int) "exactly one live slot remains" 1
    (Storage.Manager.stats m).Storage.Manager.live_blocks;
  Alcotest.(check bool) "block still flushed" true
    (Storage.Manager.segment_of_block m b <> None)

let test_diff_free_drops_chain () =
  let _engine, m, _ = make ~buffer_blocks:0 ~diff_log:(diff_cfg ~merge_len:100 ()) () in
  let b = Storage.Manager.alloc m in
  for _ = 0 to 2 do
    ignore (Storage.Manager.write_block m b)
  done;
  Alcotest.(check int) "chained before free" 2 (Storage.Manager.delta_chain_length m b);
  Storage.Manager.free_block m b;
  Alcotest.(check int) "no live slots after free" 0
    (Storage.Manager.stats m).Storage.Manager.live_blocks;
  Alcotest.(check int) "no chains after free" 0 (diff_stats_exn m).Storage.Diff_log.chains

let test_diff_buffered_absorption () =
  (* A chained block rewritten while dirty absorbs in DRAM as usual; the
     eventual deadline flush programs exactly one delta. *)
  let engine, m, flash = make ~delay:5.0 ~diff_log:(diff_cfg ~merge_len:100 ()) () in
  let b = Storage.Manager.alloc m in
  ignore (Storage.Manager.write_block m b);
  advance engine (Time.span_s 10.0);
  Alcotest.(check bool) "base flushed" true (Storage.Manager.segment_of_block m b <> None);
  let before = Device.Flash.bytes_programmed flash in
  ignore (Storage.Manager.write_block m b);
  ignore (Storage.Manager.write_block m b);
  (* While dirty, the durable home is still the live base page. *)
  Alcotest.(check bool) "dirty" true (Storage.Manager.block_is_dirty m b);
  Alcotest.(check bool) "base stays reported while dirty" true
    (Storage.Manager.segment_of_block m b <> None);
  advance engine (Time.span_s 10.0);
  Alcotest.(check int) "two absorbed writes flush as one delta" (before + 64)
    (Device.Flash.bytes_programmed flash);
  Alcotest.(check int) "chain length 1" 1 (Storage.Manager.delta_chain_length m b)

let test_diff_crash_recovers_chain () =
  let _engine, m, _ = make ~buffer_blocks:0 ~diff_log:(diff_cfg ~merge_len:100 ()) () in
  let blocks = Array.init 4 (fun _ -> Storage.Manager.alloc m) in
  Array.iter (fun b -> ignore (Storage.Manager.write_block m b)) blocks;
  (* Chains of length 0, 1, 2, 3. *)
  Array.iteri
    (fun i b ->
      for _ = 1 to i do
        ignore (Storage.Manager.write_block m b)
      done)
    blocks;
  let m', _span, report = Storage.Manager.crash_and_remount m in
  Alcotest.(check int) "all blocks recovered" 4 report.Storage.Manager.live_recovered;
  Alcotest.(check int) "nothing lost" 0 report.Storage.Manager.buffered_lost;
  Array.iteri
    (fun i b ->
      Alcotest.(check int)
        (Printf.sprintf "block %d chain survives remount" i)
        i
        (Storage.Manager.delta_chain_length m' b);
      ignore (Storage.Manager.read_block m' b))
    blocks;
  (* Remount is idempotent: a second crash rebuilds the same chains. *)
  let m'', _, _ = Storage.Manager.crash_and_remount m' in
  Array.iteri
    (fun i b ->
      Alcotest.(check int)
        (Printf.sprintf "block %d chain survives second remount" i)
        i
        (Storage.Manager.delta_chain_length m'' b))
    blocks

let test_diff_cleaning_relocates_chains () =
  (* Tiny flash + churn forces the cleaner to copy base pages and delta
     records; every block must stay readable with its chain intact. *)
  let engine, m, _ =
    make ~flash_kib:64 ~buffer_blocks:0 ~diff_log:(diff_cfg ~merge_len:6 ()) ()
  in
  let blocks = Array.init 12 (fun _ -> Storage.Manager.alloc m) in
  let rng = Rng.create ~seed:7 in
  Array.iter (fun b -> ignore (Storage.Manager.write_block m b)) blocks;
  for _ = 1 to 400 do
    let b = blocks.(Rng.int rng 12) in
    ignore (Storage.Manager.write_block m b);
    advance engine (Time.span_ms 1.0)
  done;
  Array.iter
    (fun b ->
      Alcotest.(check bool) "flushed" true (Storage.Manager.segment_of_block m b <> None);
      ignore (Storage.Manager.read_block m b))
    blocks;
  (* Chains survive a crash even after the cleaner moved them around. *)
  let m', _, report = Storage.Manager.crash_and_remount m in
  Alcotest.(check int) "all recovered" 12 report.Storage.Manager.live_recovered;
  Array.iter (fun b -> ignore (Storage.Manager.read_block m' b)) blocks

let suite =
  [
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "write/read/free cycle" `Quick test_write_read_free_cycle;
    Alcotest.test_case "flush on deadline" `Quick test_flush_on_deadline;
    Alcotest.test_case "absorption" `Quick test_absorption;
    Alcotest.test_case "cancellation" `Quick test_cancellation_avoids_flash;
    Alcotest.test_case "write-through" `Quick test_write_through_mode;
    Alcotest.test_case "overwrite supersedes" `Quick test_overwrite_supersedes_flash_copy;
    Alcotest.test_case "cleaning preserves data" `Quick test_cleaning_triggers_and_preserves;
    Alcotest.test_case "out of space" `Quick test_out_of_space;
    Alcotest.test_case "out of space inside cleaning" `Quick
      test_out_of_space_inside_cleaning;
    Alcotest.test_case "partitioned placement" `Quick test_load_cold_placement_partitioned;
    Alcotest.test_case "flush_all" `Quick test_flush_all;
    Alcotest.test_case "hot blocks stay in DRAM" `Quick test_hot_blocks_stay_in_dram;
    Alcotest.test_case "wear leveling spread" `Slow test_wear_leveling_reduces_spread;
    Alcotest.test_case "watermark flush" `Quick test_watermark_flush;
    Alcotest.test_case "consistency mid-flight" `Quick test_consistency_mid_flight;
    Alcotest.test_case "reset traffic" `Quick test_reset_traffic;
    Alcotest.test_case "diff: delta traffic" `Quick test_diff_delta_traffic;
    Alcotest.test_case "diff: read reassembly" `Quick test_diff_read_reassembly;
    Alcotest.test_case "diff: merge at threshold" `Quick test_diff_merge_at_threshold;
    Alcotest.test_case "diff: free drops chain" `Quick test_diff_free_drops_chain;
    Alcotest.test_case "diff: buffered absorption" `Quick test_diff_buffered_absorption;
    Alcotest.test_case "diff: crash recovers chains" `Quick test_diff_crash_recovers_chain;
    Alcotest.test_case "diff: cleaning relocates chains" `Quick
      test_diff_cleaning_relocates_chains;
    QCheck_alcotest.to_alcotest prop_program_accounting;
    QCheck_alcotest.to_alcotest prop_no_data_loss_random_ops;
  ]
