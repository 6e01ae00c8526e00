(* Removable flash cards: eject/insert lifecycles. *)
open Sim

let make ?spec () =
  let engine = Engine.create () in
  let host_dram = Device.Dram.create ~size_bytes:(2 * Units.mib) ~battery_backed:true () in
  let card =
    Ssmc.Card.create ~name:"test-card" ?spec ~size_mb:2
      ~manager:{ Storage.Manager.default_config with Storage.Manager.segment_sectors = 8 }
      ~engine ~host_dram ()
  in
  (engine, card)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "card fs: %a" Fs.Fs_error.pp e

let advance engine span = Engine.run_until engine (Time.add (Engine.now engine) span)

let populate card =
  let fs = Ssmc.Card.fs card in
  ignore (ok (Fs.Memfs.mkdir fs "/apps"));
  ignore (ok (Fs.Memfs.create fs "/apps/organizer"));
  ignore (ok (Fs.Memfs.write fs "/apps/organizer" ~offset:0 ~bytes:8192));
  ignore (ok (Fs.Memfs.create fs "/notes"));
  ignore (ok (Fs.Memfs.write fs "/notes" ~offset:0 ~bytes:2048))

let test_orderly_eject_and_reinsert () =
  let engine, card = make () in
  populate card;
  Alcotest.(check bool) "inserted" true (Ssmc.Card.inserted card);
  let eject = Ssmc.Card.eject card in
  Alcotest.(check int) "nothing lost" 0 eject.Ssmc.Card.lost_blocks;
  Alcotest.(check bool) "dirty data flushed" true (eject.Ssmc.Card.flushed_blocks > 0);
  Alcotest.(check bool) "flush took flash time" true
    (Time.span_to_ms eject.Ssmc.Card.eject_latency > 1.0);
  Alcotest.(check bool) "ejected" false (Ssmc.Card.inserted card);
  Alcotest.check_raises "fs refuses while ejected"
    (Invalid_argument "Card test-card: not inserted") (fun () ->
      ignore (Ssmc.Card.fs card));
  advance engine (Time.span_s 2.0);
  let insert = Ssmc.Card.insert card in
  Alcotest.(check bool) "scan charged" true
    (Time.span_to_us insert.Ssmc.Card.scan_time > 10.0);
  let fs = Ssmc.Card.fs card in
  Alcotest.(check int) "organizer intact" 8192 (ok (Fs.Memfs.file_size fs "/apps/organizer"));
  Alcotest.(check int) "notes intact" 2048 (ok (Fs.Memfs.file_size fs "/notes"));
  (* Data reads come from the card's flash. *)
  Alcotest.(check bool) "reads at flash speed" true
    (Time.span_to_us (ok (Fs.Memfs.read fs "/notes" ~offset:0 ~bytes:512)) > 10.0);
  match Fs.Memfs.check fs with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "fsck after reinsert: %s" msg

let test_surprise_eject_loses_dirty_data () =
  let engine, card = make () in
  populate card;
  (* First an orderly cycle so a checkpoint exists on the card. *)
  ignore (Ssmc.Card.eject card);
  advance engine (Time.span_s 1.0);
  ignore (Ssmc.Card.insert card);
  let fs = Ssmc.Card.fs card in
  (* New note written moments before the card is yanked. *)
  ignore (ok (Fs.Memfs.create fs "/draft"));
  ignore (ok (Fs.Memfs.write fs "/draft" ~offset:0 ~bytes:1024));
  let eject = Ssmc.Card.eject ~surprise:true card in
  Alcotest.(check bool) "dirty blocks lost" true (eject.Ssmc.Card.lost_blocks >= 2);
  Alcotest.(check int) "nothing flushed" 0 eject.Ssmc.Card.flushed_blocks;
  advance engine (Time.span_s 1.0);
  ignore (Ssmc.Card.insert card);
  let fs = Ssmc.Card.fs card in
  Alcotest.(check bool) "draft is gone" false (Fs.Memfs.exists fs "/draft");
  Alcotest.(check int) "old files intact" 8192
    (ok (Fs.Memfs.file_size fs "/apps/organizer"))

(* The checkpoint keeps each block's slot: a file whose only block sits
   behind a hole comes back with the block at the same offset, not shifted
   into the hole. *)
let test_eject_keeps_sparse_slots () =
  let engine, card = make () in
  populate card;
  let fs = Ssmc.Card.fs card in
  ignore (ok (Fs.Memfs.create fs "/sparse"));
  ignore (ok (Fs.Memfs.write fs "/sparse" ~offset:4096 ~bytes:512));
  let namespace = Alcotest.(list (triple string int (list (pair int int)))) in
  let before = Fs.Memfs.enumerate fs in
  ignore (Ssmc.Card.eject card);
  advance engine (Time.span_s 1.0);
  ignore (Ssmc.Card.insert card);
  let fs = Ssmc.Card.fs card in
  Alcotest.check namespace "enumerate unchanged by eject and insert" before
    (Fs.Memfs.enumerate fs);
  let read_us offset =
    Time.span_to_us (ok (Fs.Memfs.read fs "/sparse" ~offset ~bytes:512))
  in
  Alcotest.(check bool) "the block reads from flash at its offset" true
    (read_us 4096 > 10.0);
  Alcotest.(check bool) "the hole in front of it reads from DRAM" true
    (read_us 0 < 10.0)

(* An orderly eject writes the namespace checkpoint at the card's own
   timings: per checkpoint sector, a 16-byte header read, an erase and a
   whole-sector program.  The buffer is flushed and the banks idle first,
   so the eject's latency is the one checkpoint sector alone: 5.39 ms on
   a SunDisk card, where Intel's timings would charge 10.43 ms. *)
let test_checkpoint_at_card_timings () =
  let spec = Device.Specs.sundisk_flash in
  let engine, card = make ~spec () in
  populate card;
  ignore (Storage.Manager.flush_all (Ssmc.Card.manager card));
  advance engine (Time.span_s 2.0);
  let eject = Ssmc.Card.eject card in
  let sector =
    Device.Specs.(
      Time.span_add
        (access_time spec.f_read ~bytes:16)
        (Time.span_add spec.f_erase (access_time spec.f_write ~bytes:512)))
  in
  Alcotest.(check int) "nothing left to flush" 0 eject.Ssmc.Card.flushed_blocks;
  Alcotest.(check int) "one checkpoint sector at SunDisk timings" (Time.span_to_ns sector)
    (Time.span_to_ns eject.Ssmc.Card.eject_latency)

let test_xip_from_card () =
  (* The OmniBook pattern: bundled software in the card, executed in
     place through the host's VM. *)
  let engine, card = make () in
  let manager = Ssmc.Card.manager card in
  let vm =
    Vmem.Vm.create
      { Vmem.Vm.page_bytes = 4096; dram_frames = 64; swap = Vmem.Vm.No_swap }
      ~engine ~manager
  in
  let program =
    { Vmem.Exec.prog_name = "bundled-app"; text_bytes = 64 * 1024; data_bytes = 16 * 1024 }
  in
  let blocks = Vmem.Exec.install_text manager program in
  advance engine (Time.span_s 2.0);
  let launched = Vmem.Exec.launch vm program ~text_blocks:blocks Vmem.Exec.Execute_in_place in
  Alcotest.(check int) "no DRAM for text" 0 launched.Vmem.Exec.text_dram_bytes;
  let runtime = Vmem.Exec.run vm launched ~rng:(Rng.create ~seed:2) ~fetches:500 in
  Alcotest.(check bool) "executes from the card" true (Time.span_to_us runtime > 0.0)

let test_double_operations_rejected () =
  let _engine, card = make () in
  ignore (Ssmc.Card.eject card);
  Alcotest.check_raises "double eject" (Invalid_argument "Card test-card: not inserted")
    (fun () -> ignore (Ssmc.Card.eject card));
  ignore (Ssmc.Card.insert card);
  Alcotest.check_raises "double insert"
    (Invalid_argument "Card test-card: already inserted") (fun () ->
      ignore (Ssmc.Card.insert card))

let suite =
  [
    Alcotest.test_case "orderly eject & reinsert" `Quick test_orderly_eject_and_reinsert;
    Alcotest.test_case "surprise eject loses dirty" `Quick test_surprise_eject_loses_dirty_data;
    Alcotest.test_case "eject keeps sparse file slots" `Quick
      test_eject_keeps_sparse_slots;
    Alcotest.test_case "SunDisk checkpoint at SunDisk timings" `Quick
      test_checkpoint_at_card_timings;
    Alcotest.test_case "XIP from card" `Quick test_xip_from_card;
    Alcotest.test_case "double operations rejected" `Quick test_double_operations_rejected;
  ]
