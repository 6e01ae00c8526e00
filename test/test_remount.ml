(* Crash recovery: rebuilding the block map from flash sector headers. *)
open Sim

let make ?(flash_kib = 128) ?(buffer_blocks = 16) () =
  let engine = Engine.create () in
  let flash =
    Device.Flash.create (Device.Flash.config ~nbanks:2 ~size_bytes:(flash_kib * 1024) ())
  in
  let dram = Device.Dram.create ~size_bytes:Units.mib ~battery_backed:true () in
  let cfg =
    {
      Storage.Manager.default_config with
      Storage.Manager.segment_sectors = 8;
      buffer =
        {
          Storage.Write_buffer.capacity_blocks = buffer_blocks;
          writeback_delay = Time.span_s 5.0;
          refresh_on_rewrite = true;
        };
    }
  in
  (engine, Storage.Manager.create cfg ~engine ~flash ~dram)

let advance engine span = Engine.run_until engine (Time.add (Engine.now engine) span)

let test_clean_shutdown_recovers_everything () =
  let _engine, m = make () in
  let blocks = Array.init 20 (fun _ -> Storage.Manager.alloc m) in
  Array.iter (fun b -> ignore (Storage.Manager.write_block m b)) blocks;
  ignore (Storage.Manager.flush_all m);
  let placement = Array.map (Storage.Manager.segment_of_block m) blocks in
  let fresh, scan_span, report = Storage.Manager.crash_and_remount m in
  Alcotest.(check int) "all blocks recovered" 20 report.Storage.Manager.live_recovered;
  Alcotest.(check int) "nothing was buffered" 0 report.Storage.Manager.buffered_lost;
  Alcotest.(check bool) "scan took device time" true (Time.span_to_us scan_span > 10.0);
  Array.iteri
    (fun i b ->
      Alcotest.(check (option int))
        (Printf.sprintf "block %d placement preserved" i)
        placement.(i)
        (Storage.Manager.segment_of_block fresh b);
      (* And it is readable at flash speed. *)
      Alcotest.(check bool) "readable" true
        (Time.span_to_us (Storage.Manager.read_block fresh b) > 10.0))
    blocks

let test_dirty_data_rolls_back_or_vanishes () =
  let engine, m = make () in
  (* [survivor] gets flushed once, then rewritten (dirty at crash):
     recovery must resurrect the flushed version.  [ghost] only ever
     lived in the buffer: it is gone. *)
  let survivor = Storage.Manager.alloc m in
  ignore (Storage.Manager.write_block m survivor);
  advance engine (Time.span_s 30.0);
  Alcotest.(check bool) "survivor flushed" true
    (Storage.Manager.segment_of_block m survivor <> None);
  ignore (Storage.Manager.write_block m survivor);
  let ghost = Storage.Manager.alloc m in
  ignore (Storage.Manager.write_block m ghost);
  let fresh, _span, report = Storage.Manager.crash_and_remount m in
  Alcotest.(check int) "two dirty blocks lost with the buffer" 2
    report.Storage.Manager.buffered_lost;
  Alcotest.(check bool) "survivor rolled back to its flash version" true
    (Storage.Manager.segment_of_block fresh survivor <> None);
  Alcotest.check_raises "ghost is unknown to the recovered manager"
    (Invalid_argument (Printf.sprintf "Manager: unknown block %d" ghost)) (fun () ->
      ignore (Storage.Manager.read_block fresh ghost))

let test_stale_copies_discarded () =
  let engine, m = make () in
  let b = Storage.Manager.alloc m in
  (* Flush the same block twice (rewrite between flushes): two flash
     copies with different versions exist until cleaning erases the old
     segment. *)
  ignore (Storage.Manager.write_block m b);
  advance engine (Time.span_s 30.0);
  ignore (Storage.Manager.write_block m b);
  advance engine (Time.span_s 30.0);
  let _fresh, _span, report = Storage.Manager.crash_and_remount m in
  Alcotest.(check int) "one winner" 1 report.Storage.Manager.live_recovered;
  Alcotest.(check bool) "old version discarded" true
    (report.Storage.Manager.stale_discarded >= 1)

let test_recovered_manager_fully_functional () =
  let engine, m = make ~flash_kib:64 () in
  let blocks = Array.init 30 (fun _ -> Storage.Manager.alloc m) in
  Array.iter (fun b -> ignore (Storage.Manager.write_block m b)) blocks;
  ignore (Storage.Manager.flush_all m);
  let fresh, _span, _report = Storage.Manager.crash_and_remount m in
  (* Drive enough churn through the recovered manager to force cleaning. *)
  for _ = 1 to 10 do
    Array.iter (fun b -> ignore (Storage.Manager.write_block fresh b)) blocks;
    advance engine (Time.span_s 10.0)
  done;
  ignore (Storage.Manager.flush_all fresh);
  let stats = Storage.Manager.stats fresh in
  Alcotest.(check int) "all still live" 30 stats.Storage.Manager.live_blocks;
  Alcotest.(check bool) "cleaning ran on recovered state" true
    (stats.Storage.Manager.cleanings > 0);
  (* Fresh allocations do not collide with recovered handles. *)
  let nb = Storage.Manager.alloc fresh in
  Alcotest.(check bool) "fresh handle distinct" true
    (not (Array.exists (fun b -> b = nb) blocks))

let test_scan_time_scales_with_flash_size () =
  let scan kib =
    let engine, m = make ~flash_kib:kib () in
    let b = Storage.Manager.alloc m in
    ignore (Storage.Manager.write_block m b);
    ignore (Storage.Manager.flush_all m);
    (* Let the flush's program finish so the scan measures only itself. *)
    advance engine (Time.span_s 1.0);
    let _, span, _ = Storage.Manager.crash_and_remount m in
    Time.span_to_us span
  in
  let small = scan 64 and large = scan 512 in
  Alcotest.(check bool)
    (Printf.sprintf "8x flash, ~8x scan (%.0fus vs %.0fus)" small large)
    true
    (large > 6.0 *. small && large < 10.0 *. small)

(* One mount path: a manager is detached and its flash mounted with
   [Manager.mount] from the device alone, never reading the old manager
   again; a twin run of the same ops that calls [crash_and_remount]
   instead must recover the same blocks at the same places, with the same
   chains, scan span and report. *)
let test_detach_then_mount_matches_remount () =
  let module M = Storage.Manager in
  let module Ops = Test_manager_diff.Ops in
  List.iter
    (fun diff_log ->
      let cfg =
        Ops.config ?diff_log ~cleaner:Storage.Cleaner.Cost_benefit
          ~wear:Storage.Wear.Dynamic ~banking:Storage.Banks.Unified ~buffer_blocks:8 ()
      in
      let twin () =
        let engine = Engine.create () in
        let flash =
          Device.Flash.create
            (Device.Flash.config ~nbanks:2 ~endurance_override:60 ~size_bytes:(128 * 1024)
               ())
        in
        let dram = Device.Dram.create ~size_bytes:Units.mib ~battery_backed:true () in
        let m = M.create cfg ~engine ~flash ~dram in
        Ops.run_ops (engine, m) (Ops.lcg_ops ~seed:42 ~len:350);
        (engine, flash, dram, m)
      in
      let _, _, _, crashed = twin () in
      let want, want_span, want_report = M.crash_and_remount crashed in
      let engine, flash, dram, detached = twin () in
      let lost = M.detach detached in
      let got, got_span, report = M.mount cfg ~engine ~flash ~dram in
      let ctx = if diff_log = None then "" else " (diff logging)" in
      let per_block f m = List.map (fun b -> (b, f m b)) (M.known_blocks m) in
      Alcotest.(check (list int)) ("recovered blocks" ^ ctx) (M.known_blocks want)
        (M.known_blocks got);
      Alcotest.(check (list (pair int (option (pair int int)))))
        ("location_of_block" ^ ctx)
        (per_block M.location_of_block want)
        (per_block M.location_of_block got);
      let chains = per_block M.delta_chain_length in
      Alcotest.(check (list (pair int int))) ("delta_chain_length" ^ ctx) (chains want)
        (chains got);
      Alcotest.(check bool) ("the remount recovers chains" ^ ctx) (diff_log <> None)
        (List.exists (fun (_, n) -> n > 0) (chains got));
      Alcotest.(check string) ("remount report" ^ ctx)
        (Fmt.str "%a" M.pp_remount_report want_report)
        (Fmt.str "%a" M.pp_remount_report { report with M.buffered_lost = lost });
      Alcotest.(check bool) ("something lost and something stale" ^ ctx) true
        (lost > 0 && report.M.stale_discarded > 0);
      Alcotest.(check int) ("scan span" ^ ctx) (Time.span_to_ns want_span)
        (Time.span_to_ns got_span);
      match Scan_oracle.check cfg got with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "mounted manager%s: %s" ctx msg)
    [ None; Some Storage.Diff_log.default_config ]

let suite =
  [
    Alcotest.test_case "clean shutdown recovers everything" `Quick
      test_clean_shutdown_recovers_everything;
    Alcotest.test_case "dirty data rolls back or vanishes" `Quick
      test_dirty_data_rolls_back_or_vanishes;
    Alcotest.test_case "stale copies discarded" `Quick test_stale_copies_discarded;
    Alcotest.test_case "recovered manager functional" `Quick
      test_recovered_manager_fully_functional;
    Alcotest.test_case "scan scales with size" `Quick test_scan_time_scales_with_flash_size;
    Alcotest.test_case "detach then mount matches crash_and_remount" `Quick
      test_detach_then_mount_matches_remount;
  ]
