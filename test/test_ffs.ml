open Sim

let err = Alcotest.testable Fs.Fs_error.pp Fs.Fs_error.equal
let span_ok = Alcotest.testable Time.pp_span (fun _ _ -> true)
let res = Alcotest.result span_ok err

let make ?(config = Fs.Ffs.default_config) ?spindown () =
  let engine = Engine.create () in
  let disk = Device.Disk.create ?spindown_timeout:spindown ~rng:(Rng.create ~seed:5) () in
  let dram = Device.Dram.create ~size_bytes:Units.mib ~battery_backed:true () in
  (engine, Fs.Ffs.create_fs ~config ~engine ~disk ~dram ())

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %a" Fs.Fs_error.pp e

let test_format_layout () =
  let _e, fs = make () in
  (* 20MB KittyHawk, 4KB blocks: ~5120 blocks minus metadata. *)
  Alcotest.(check bool) "data region sized" true
    (Fs.Ffs.data_blocks fs > 4500 && Fs.Ffs.data_blocks fs < 5120);
  Alcotest.(check int) "all free initially" (Fs.Ffs.data_blocks fs) (Fs.Ffs.free_blocks fs)

let test_namespace_errors () =
  let _e, fs = make () in
  ignore (ok (Fs.Ffs.mkdir fs "/d"));
  ignore (ok (Fs.Ffs.create fs "/d/f"));
  Alcotest.(check bool) "exists" true (Fs.Ffs.exists fs "/d/f");
  Alcotest.check res "dup" (Error Fs.Fs_error.Eexist) (Fs.Ffs.create fs "/d/f");
  Alcotest.check res "missing parent" (Error Fs.Fs_error.Enoent) (Fs.Ffs.create fs "/x/y");
  Alcotest.check res "notdir" (Error Fs.Fs_error.Enotdir) (Fs.Ffs.create fs "/d/f/z");
  Alcotest.(check (list string)) "readdir" [ "f" ] (ok (Fs.Ffs.readdir fs "/d"))

let test_write_allocates_read_costs_disk () =
  let _e, fs = make () in
  ignore (ok (Fs.Ffs.create fs "/f"));
  let free0 = Fs.Ffs.free_blocks fs in
  ignore (ok (Fs.Ffs.write fs "/f" ~offset:0 ~bytes:8192));
  Alcotest.(check int) "two blocks allocated" (free0 - 2) (Fs.Ffs.free_blocks fs);
  Alcotest.(check int) "size" 8192 (ok (Fs.Ffs.file_size fs "/f"));
  (* First read: in cache (we just wrote it) -> fast.  After enough other
     traffic evicts it, a read must hit the disk (ms-scale). *)
  let cached = ok (Fs.Ffs.read fs "/f" ~offset:0 ~bytes:4096) in
  Alcotest.(check bool) "cached read is sub-ms" true (Time.span_to_ms cached < 1.0)

let test_cache_miss_costs_milliseconds () =
  let config = { Fs.Ffs.default_config with Fs.Ffs.cache_blocks = 2 } in
  let _e, fs = make ~config () in
  ignore (ok (Fs.Ffs.create fs "/f"));
  ignore (ok (Fs.Ffs.write fs "/f" ~offset:0 ~bytes:(64 * 4096)));
  (* Touch many other blocks to evict block 0 from the tiny cache. *)
  ignore (ok (Fs.Ffs.read fs "/f" ~offset:(50 * 4096) ~bytes:(8 * 4096)));
  let span = ok (Fs.Ffs.read fs "/f" ~offset:0 ~bytes:4096) in
  Alcotest.(check bool) "mechanical latency" true (Time.span_to_ms span > 1.0)

let test_indirect_file () =
  let _e, fs = make () in
  ignore (ok (Fs.Ffs.create fs "/big"));
  (* Write a block beyond the 12 direct pointers (needs the single
     indirect) and beyond 12+512 (needs the double indirect). *)
  ignore (ok (Fs.Ffs.write fs "/big" ~offset:(20 * 4096) ~bytes:4096));
  ignore (ok (Fs.Ffs.write fs "/big" ~offset:(600 * 4096) ~bytes:4096));
  Alcotest.(check int) "size tracks far write" (601 * 4096)
    (ok (Fs.Ffs.file_size fs "/big"));
  ignore (ok (Fs.Ffs.read fs "/big" ~offset:(600 * 4096) ~bytes:4096));
  (* Holes read as zero without device traffic. *)
  ignore (ok (Fs.Ffs.read fs "/big" ~offset:(100 * 4096) ~bytes:4096))

let test_unlink_frees_everything () =
  let _e, fs = make () in
  ignore (ok (Fs.Ffs.create fs "/f"));
  let free0 = Fs.Ffs.free_blocks fs in
  ignore (ok (Fs.Ffs.write fs "/f" ~offset:0 ~bytes:(20 * 4096)));
  Alcotest.(check bool) "blocks consumed (data + indirect)" true
    (Fs.Ffs.free_blocks fs <= free0 - 20);
  ignore (ok (Fs.Ffs.unlink fs "/f"));
  Alcotest.(check int) "all recycled" free0 (Fs.Ffs.free_blocks fs);
  Alcotest.(check bool) "gone" false (Fs.Ffs.exists fs "/f")

let test_truncate () =
  let _e, fs = make () in
  ignore (ok (Fs.Ffs.create fs "/f"));
  let free0 = Fs.Ffs.free_blocks fs in
  ignore (ok (Fs.Ffs.write fs "/f" ~offset:0 ~bytes:(8 * 4096)));
  ignore (ok (Fs.Ffs.truncate fs "/f" ~size:4096));
  Alcotest.(check int) "seven freed" (free0 - 1) (Fs.Ffs.free_blocks fs);
  Alcotest.(check int) "size" 4096 (ok (Fs.Ffs.file_size fs "/f"))

(* A tiny "disk": shrink capacity via a tiny Ffs on a custom spec. *)
let make_tiny () =
  let spec = { Device.Specs.hp_kittyhawk with Device.Specs.k_capacity_bytes = 1024 * 1024 } in
  let engine = Engine.create () in
  let disk = Device.Disk.create ~spec ~rng:(Rng.create ~seed:1) () in
  let dram = Device.Dram.create ~size_bytes:Units.mib ~battery_backed:true () in
  let config = { Fs.Ffs.default_config with Fs.Ffs.ninodes = 64 } in
  Fs.Ffs.create_fs ~config ~engine ~disk ~dram ()

let test_enospc () =
  let fs = make_tiny () in
  ignore (ok (Fs.Ffs.create fs "/hog"));
  let result = Fs.Ffs.write fs "/hog" ~offset:0 ~bytes:(2 * 1024 * 1024) in
  Alcotest.check res "enospc" (Error Fs.Fs_error.Enospc) result

let fsck fs =
  match Fs.Ffs.check fs with Ok () -> () | Error msg -> Alcotest.failf "fsck: %s" msg

let write_file fs path bytes =
  ignore (ok (Fs.Ffs.create fs path));
  ignore (ok (Fs.Ffs.write fs path ~offset:0 ~bytes))

(* Use up every whole block; fragment blocks keep whatever room they had. *)
let fill_disk fs =
  ignore (ok (Fs.Ffs.create fs "/hog"));
  Alcotest.check res "the hog fills the disk" (Error Fs.Fs_error.Enospc)
    (Fs.Ffs.write fs "/hog" ~offset:0 ~bytes:(2 * 1024 * 1024));
  Alcotest.(check int) "no whole block free" 0 (Fs.Ffs.free_blocks fs);
  fsck fs

let test_enospc_tail_needs_indirect () =
  let fs = make_tiny () in
  write_file fs "/f" (12 * 4096);
  (* A one-fragment file: a shared fragment block with three free. *)
  write_file fs "/g" 512;
  fill_disk fs;
  (* The fragments are found, but the tail of a 12-block file sits at map
     index 12, behind a single-indirect block the disk cannot supply: the
     fragments must go back before ENOSPC. *)
  Alcotest.check res "enospc" (Error Fs.Fs_error.Enospc)
    (Fs.Ffs.write fs "/f" ~offset:(12 * 4096) ~bytes:512);
  fsck fs

let test_enospc_tail_growth () =
  let fs = make_tiny () in
  (* Three files use all four fragments of one shared block. *)
  write_file fs "/t" 512;
  write_file fs "/u" 1536;
  write_file fs "/v" 512;
  fill_disk fs;
  (* Growing /t's one-fragment tail to three releases its fragment first,
     then finds no run of three anywhere: the released one must be taken
     back, not left free while the map still points at it. *)
  Alcotest.check res "enospc" (Error Fs.Fs_error.Enospc)
    (Fs.Ffs.write fs "/t" ~offset:512 ~bytes:2048);
  fsck fs;
  ignore (ok (Fs.Ffs.unlink fs "/t"));
  fsck fs

let test_sync_pushes_dirty () =
  let engine, fs = make () in
  ignore (ok (Fs.Ffs.create fs "/f"));
  ignore (ok (Fs.Ffs.write fs "/f" ~offset:0 ~bytes:4096));
  let disk_writes_before = Device.Disk.writes (Fs.Ffs.disk fs) in
  let span = Fs.Ffs.sync fs in
  Alcotest.(check bool) "sync wrote to disk" true
    (Device.Disk.writes (Fs.Ffs.disk fs) > disk_writes_before);
  Alcotest.(check bool) "sync took disk time" true (Time.span_to_ms span > 1.0);
  ignore engine

let test_update_daemon_flushes () =
  let engine, fs = make () in
  ignore (ok (Fs.Ffs.create fs "/f"));
  ignore (ok (Fs.Ffs.write fs "/f" ~offset:0 ~bytes:4096));
  let before = Device.Disk.writes (Fs.Ffs.disk fs) in
  (* The update daemon runs every 30s. *)
  Engine.run_until engine (Time.add (Engine.now engine) (Time.span_s 61.0));
  Alcotest.(check bool) "daemon flushed dirty data" true
    (Device.Disk.writes (Fs.Ffs.disk fs) > before)

let test_preload () =
  let _e, fs = make () in
  (match Fs.Ffs.preload fs "/app" ~size:10_000 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "preload: %a" Fs.Fs_error.pp e);
  Alcotest.(check int) "size" 10_000 (ok (Fs.Ffs.file_size fs "/app"))

(* --- Fragments (4.2BSD block/fragment allocation) ------------------------- *)

let test_fragment_tail_allocation () =
  let _e, fs = make () in
  ignore (ok (Fs.Ffs.create fs "/tiny"));
  let used0 = Fs.Ffs.used_bytes fs in
  (* 1000 bytes need one 1KB fragment, not a 4KB block. *)
  ignore (ok (Fs.Ffs.write fs "/tiny" ~offset:0 ~bytes:1000));
  Alcotest.(check int) "one fragment consumed" 1024 (Fs.Ffs.used_bytes fs - used0);
  fsck fs

let test_fragment_sharing () =
  let _e, fs = make () in
  (* Create first: directory growth allocates its own block. *)
  for i = 0 to 3 do
    ignore (ok (Fs.Ffs.create fs (Printf.sprintf "/t%d" i)))
  done;
  let used0 = Fs.Ffs.used_bytes fs in
  let free0 = Fs.Ffs.free_blocks fs in
  (* Four 1KB tails share one 4KB block. *)
  for i = 0 to 3 do
    ignore (ok (Fs.Ffs.write fs (Printf.sprintf "/t%d" i) ~offset:0 ~bytes:900))
  done;
  Alcotest.(check int) "four fragments, 4KB total" 4096 (Fs.Ffs.used_bytes fs - used0);
  Alcotest.(check int) "one whole block left the free pool" 1
    (free0 - Fs.Ffs.free_blocks fs);
  fsck fs

let test_fragment_upgrade_on_growth () =
  let _e, fs = make () in
  ignore (ok (Fs.Ffs.create fs "/grow"));
  ignore (ok (Fs.Ffs.write fs "/grow" ~offset:0 ~bytes:1000));
  fsck fs;
  (* Growing past the block boundary upgrades the tail to a whole block
     and allocates a new fragment tail. *)
  ignore (ok (Fs.Ffs.write fs "/grow" ~offset:1000 ~bytes:4096));
  Alcotest.(check int) "size" 5096 (ok (Fs.Ffs.file_size fs "/grow"));
  fsck fs;
  ignore (ok (Fs.Ffs.read fs "/grow" ~offset:0 ~bytes:5096));
  (* And growing within the tail extends the fragment run. *)
  ignore (ok (Fs.Ffs.write fs "/grow" ~offset:5096 ~bytes:2000));
  fsck fs

let test_fragment_truncate_and_unlink () =
  let _e, fs = make () in
  ignore (ok (Fs.Ffs.create fs "/a"));
  ignore (ok (Fs.Ffs.create fs "/b"));
  let used0 = Fs.Ffs.used_bytes fs in
  ignore (ok (Fs.Ffs.write fs "/a" ~offset:0 ~bytes:3500));  (* 4 frags *)
  ignore (ok (Fs.Ffs.write fs "/b" ~offset:0 ~bytes:900));  (* 1 frag *)
  fsck fs;
  (* Shrinking /a's tail releases fragments without touching /b. *)
  ignore (ok (Fs.Ffs.truncate fs "/a" ~size:800));
  fsck fs;
  Alcotest.(check int) "two fragments remain" 2048 (Fs.Ffs.used_bytes fs - used0);
  ignore (ok (Fs.Ffs.unlink fs "/a"));
  fsck fs;
  Alcotest.(check int) "only /b's fragment left" 1024 (Fs.Ffs.used_bytes fs - used0);
  ignore (ok (Fs.Ffs.unlink fs "/b"));
  fsck fs;
  Alcotest.(check int) "all space recycled" 0 (Fs.Ffs.used_bytes fs - used0)

let test_fragments_disabled () =
  let config = { Fs.Ffs.default_config with Fs.Ffs.frag_per_block = 1 } in
  let _e, fs = make ~config () in
  ignore (ok (Fs.Ffs.create fs "/tiny"));
  let used0 = Fs.Ffs.used_bytes fs in
  ignore (ok (Fs.Ffs.write fs "/tiny" ~offset:0 ~bytes:1000));
  Alcotest.(check int) "whole block consumed" 4096 (Fs.Ffs.used_bytes fs - used0);
  fsck fs

let prop_random_ops_consistent =
  QCheck.Test.make ~name:"ffs: random ops keep namespace consistent" ~count:25
    QCheck.(list_of_size (Gen.int_range 5 40) (pair (int_bound 3) (int_bound 3)))
    (fun ops ->
      let _e, fs = make () in
      let shadow = Hashtbl.create 8 in
      List.iter
        (fun (file, action) ->
          let path = Printf.sprintf "/f%d" file in
          match action with
          | 0 -> begin
            match Fs.Ffs.create fs path with
            | Ok _ -> Hashtbl.replace shadow path 0
            | Error Fs.Fs_error.Eexist -> ()
            | Error e -> Alcotest.failf "create: %a" Fs.Fs_error.pp e
          end
          | 1 ->
            if Hashtbl.mem shadow path then begin
              ignore (Fs.Ffs.write fs path ~offset:0 ~bytes:5000 |> Result.get_ok);
              Hashtbl.replace shadow path 5000
            end
          | 2 ->
            if Hashtbl.mem shadow path then begin
              ignore (Fs.Ffs.unlink fs path |> Result.get_ok);
              Hashtbl.remove shadow path
            end
          | _ ->
            if Hashtbl.mem shadow path then
              ignore (Fs.Ffs.read fs path ~offset:0 ~bytes:512 |> Result.get_ok))
        ops;
      (match Fs.Ffs.check fs with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "fsck: %s" msg);
      Hashtbl.fold
        (fun path size acc ->
          acc && Fs.Ffs.exists fs path && Fs.Ffs.file_size fs path = Ok size)
        shadow true)

let suite =
  [
    Alcotest.test_case "format layout" `Quick test_format_layout;
    Alcotest.test_case "namespace errors" `Quick test_namespace_errors;
    Alcotest.test_case "write/read" `Quick test_write_allocates_read_costs_disk;
    Alcotest.test_case "cache miss costs ms" `Quick test_cache_miss_costs_milliseconds;
    Alcotest.test_case "indirect file" `Quick test_indirect_file;
    Alcotest.test_case "unlink frees" `Quick test_unlink_frees_everything;
    Alcotest.test_case "truncate" `Quick test_truncate;
    Alcotest.test_case "enospc" `Quick test_enospc;
    Alcotest.test_case "enospc: tail behind a missing indirect block" `Quick
      test_enospc_tail_needs_indirect;
    Alcotest.test_case "enospc: growing a fragment tail" `Quick test_enospc_tail_growth;
    Alcotest.test_case "sync" `Quick test_sync_pushes_dirty;
    Alcotest.test_case "update daemon" `Quick test_update_daemon_flushes;
    Alcotest.test_case "preload" `Quick test_preload;
    Alcotest.test_case "fragment tail" `Quick test_fragment_tail_allocation;
    Alcotest.test_case "fragment sharing" `Quick test_fragment_sharing;
    Alcotest.test_case "fragment upgrade" `Quick test_fragment_upgrade_on_growth;
    Alcotest.test_case "fragment truncate/unlink" `Quick test_fragment_truncate_and_unlink;
    Alcotest.test_case "fragments disabled" `Quick test_fragments_disabled;
    QCheck_alcotest.to_alcotest prop_random_ops_consistent;
  ]
