open Sim

let err = Alcotest.testable Fs.Fs_error.pp Fs.Fs_error.equal
let span_ok = Alcotest.testable Time.pp_span (fun _ _ -> true)
let res = Alcotest.result span_ok err

let make ?(flash_kib = 512) () =
  let engine = Engine.create () in
  let flash =
    Device.Flash.create (Device.Flash.config ~nbanks:2 ~size_bytes:(flash_kib * 1024) ())
  in
  let dram = Device.Dram.create ~size_bytes:Units.mib ~battery_backed:true () in
  let manager =
    Storage.Manager.create
      { Storage.Manager.default_config with Storage.Manager.segment_sectors = 8 }
      ~engine ~flash ~dram
  in
  (engine, Fs.Memfs.create_fs ~manager ())

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %a" Fs.Fs_error.pp e

let test_create_and_namespace () =
  let _e, fs = make () in
  ignore (ok (Fs.Memfs.mkdir fs "/dir"));
  ignore (ok (Fs.Memfs.create fs "/dir/file"));
  Alcotest.(check bool) "exists" true (Fs.Memfs.exists fs "/dir/file");
  Alcotest.(check bool) "root exists" true (Fs.Memfs.exists fs "/");
  Alcotest.(check int) "empty file" 0 (ok (Fs.Memfs.file_size fs "/dir/file"));
  Alcotest.(check (list string)) "readdir" [ "file" ] (ok (Fs.Memfs.readdir fs "/dir"));
  Alcotest.check res "duplicate create" (Error Fs.Fs_error.Eexist)
    (Fs.Memfs.create fs "/dir/file");
  Alcotest.check res "missing parent" (Error Fs.Fs_error.Enoent)
    (Fs.Memfs.create fs "/nope/file");
  Alcotest.check res "file as dir" (Error Fs.Fs_error.Enotdir)
    (Fs.Memfs.create fs "/dir/file/sub");
  Alcotest.check res "bad path" (Error Fs.Fs_error.Einval) (Fs.Memfs.create fs "rel")

let test_write_read_sizes () =
  let _e, fs = make () in
  ignore (ok (Fs.Memfs.create fs "/f"));
  ignore (ok (Fs.Memfs.write fs "/f" ~offset:0 ~bytes:1000));
  Alcotest.(check int) "size" 1000 (ok (Fs.Memfs.file_size fs "/f"));
  ignore (ok (Fs.Memfs.write fs "/f" ~offset:2000 ~bytes:100));
  Alcotest.(check int) "sparse extend" 2100 (ok (Fs.Memfs.file_size fs "/f"));
  ignore (ok (Fs.Memfs.read fs "/f" ~offset:0 ~bytes:2100));
  (* Reading past EOF reads nothing and is not an error. *)
  ignore (ok (Fs.Memfs.read fs "/f" ~offset:5000 ~bytes:100));
  Alcotest.check res "negative offset" (Error Fs.Fs_error.Einval)
    (Fs.Memfs.read fs "/f" ~offset:(-1) ~bytes:10);
  Alcotest.check res "read of dir" (Error Fs.Fs_error.Eisdir)
    (Fs.Memfs.read fs "/" ~offset:0 ~bytes:1)

let test_metadata_ops_are_dram_fast () =
  let _e, fs = make () in
  ignore (ok (Fs.Memfs.mkdir fs "/d"));
  let span = ok (Fs.Memfs.create fs "/d/f") in
  (* Memory-resident metadata: microseconds, not milliseconds. *)
  Alcotest.(check bool) "create ~us" true (Time.span_to_us span < 50.0);
  let wspan = ok (Fs.Memfs.write fs "/d/f" ~offset:0 ~bytes:4096) in
  Alcotest.(check bool) "buffered write ~us" true (Time.span_to_us wspan < 200.0)

let test_truncate_frees_blocks () =
  let _e, fs = make () in
  ignore (ok (Fs.Memfs.create fs "/f"));
  ignore (ok (Fs.Memfs.write fs "/f" ~offset:0 ~bytes:4096));
  let manager = Fs.Memfs.manager fs in
  let before = (Storage.Manager.stats manager).Storage.Manager.dirty_blocks in
  Alcotest.(check int) "eight blocks dirty" 8 before;
  ignore (ok (Fs.Memfs.truncate fs "/f" ~size:1024));
  let after = (Storage.Manager.stats manager).Storage.Manager.dirty_blocks in
  Alcotest.(check int) "six freed" 2 after;
  Alcotest.(check int) "size" 1024 (ok (Fs.Memfs.file_size fs "/f"));
  Alcotest.(check int) "two blocks remain" 2
    (List.length (ok (Fs.Memfs.file_blocks fs "/f")))

let test_unlink_and_rmdir () =
  let _e, fs = make () in
  ignore (ok (Fs.Memfs.mkdir fs "/d"));
  ignore (ok (Fs.Memfs.create fs "/d/f"));
  ignore (ok (Fs.Memfs.write fs "/d/f" ~offset:0 ~bytes:512));
  Alcotest.check res "rmdir non-empty" (Error Fs.Fs_error.Enotempty)
    (Fs.Memfs.rmdir fs "/d");
  ignore (ok (Fs.Memfs.unlink fs "/d/f"));
  Alcotest.(check bool) "gone" false (Fs.Memfs.exists fs "/d/f");
  Alcotest.check res "double unlink" (Error Fs.Fs_error.Enoent) (Fs.Memfs.unlink fs "/d/f");
  Alcotest.check res "unlink dir" (Error Fs.Fs_error.Eisdir) (Fs.Memfs.unlink fs "/d");
  ignore (ok (Fs.Memfs.rmdir fs "/d"));
  Alcotest.(check bool) "dir gone" false (Fs.Memfs.exists fs "/d")

let test_no_indirect_blocks_flat_map () =
  (* A "large" file costs the same per-block metadata as a small one: the
     block map is flat.  Read latency of block 1000 equals block 0. *)
  let _e, fs = make ~flash_kib:2048 () in
  ignore (ok (Fs.Memfs.create fs "/big"));
  ignore (ok (Fs.Memfs.write fs "/big" ~offset:0 ~bytes:512));
  ignore (ok (Fs.Memfs.write fs "/big" ~offset:(900 * 512) ~bytes:512));
  let near = ok (Fs.Memfs.read fs "/big" ~offset:0 ~bytes:512) in
  let far = ok (Fs.Memfs.read fs "/big" ~offset:(900 * 512) ~bytes:512) in
  Alcotest.(check int) "identical cost near/far" (Time.span_to_ns near)
    (Time.span_to_ns far)

let test_preload_goes_cold () =
  let _e, fs = make () in
  ignore (ok (Fs.Memfs.mkdir fs "/data"));
  (match Fs.Memfs.preload fs "/data/app" ~size:8192 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "preload: %a" Fs.Fs_error.pp e);
  Alcotest.(check int) "size" 8192 (ok (Fs.Memfs.file_size fs "/data/app"));
  let manager = Fs.Memfs.manager fs in
  let stats = Storage.Manager.stats manager in
  Alcotest.(check int) "16 cold loads" 16 stats.Storage.Manager.cold_loads;
  Alcotest.(check int) "nothing dirty" 0 stats.Storage.Manager.dirty_blocks;
  (* Preloaded data reads straight from flash. *)
  let span = ok (Fs.Memfs.read fs "/data/app" ~offset:0 ~bytes:512) in
  Alcotest.(check bool) "flash-speed read" true (Time.span_to_us span > 10.0)

let test_metadata_bytes_grow () =
  let _e, fs = make () in
  let empty = Fs.Memfs.metadata_bytes fs in
  ignore (ok (Fs.Memfs.mkdir fs "/d"));
  for i = 0 to 9 do
    ignore (ok (Fs.Memfs.create fs (Printf.sprintf "/d/f%d" i)))
  done;
  Alcotest.(check bool) "metadata grew" true (Fs.Memfs.metadata_bytes fs > empty)

let test_sync_flushes () =
  let _e, fs = make () in
  ignore (ok (Fs.Memfs.create fs "/f"));
  ignore (ok (Fs.Memfs.write fs "/f" ~offset:0 ~bytes:2048));
  ignore (Fs.Memfs.sync fs);
  let stats = Storage.Manager.stats (Fs.Memfs.manager fs) in
  Alcotest.(check int) "buffer drained" 0 stats.Storage.Manager.dirty_blocks;
  Alcotest.(check int) "flushed" 4 stats.Storage.Manager.blocks_flushed

let test_enumerate_and_adopt () =
  let _e, fs = make () in
  ignore (ok (Fs.Memfs.mkdir fs "/d"));
  ignore (ok (Fs.Memfs.create fs "/d/a"));
  ignore (ok (Fs.Memfs.write fs "/d/a" ~offset:0 ~bytes:1024));
  ignore (ok (Fs.Memfs.create fs "/b"));
  ignore (ok (Fs.Memfs.write fs "/b" ~offset:0 ~bytes:512));
  (* A sparse file: its only block sits at slot 2, behind a hole. *)
  ignore (ok (Fs.Memfs.create fs "/h"));
  ignore (ok (Fs.Memfs.write fs "/h" ~offset:1024 ~bytes:512));
  let entries = Fs.Memfs.enumerate fs in
  Alcotest.(check (list string)) "paths sorted" [ "/b"; "/d/a"; "/h" ]
    (List.map (fun (p, _, _) -> p) entries);
  let _, size_a, blocks_a = List.nth entries 1 in
  Alcotest.(check int) "size" 1024 size_a;
  Alcotest.(check (list int)) "two blocks at slots 0 and 1" [ 0; 1 ]
    (List.map fst blocks_a);
  let _, size_h, blocks_h = List.nth entries 2 in
  Alcotest.(check (list int)) "hole kept" [ 2 ] (List.map fst blocks_h);
  (* Adopt those blocks under new names in a second namespace over the
     same manager (what card insertion does). *)
  let fs2 = Fs.Memfs.create_fs ~manager:(Fs.Memfs.manager fs) () in
  let adopt path size blocks =
    match Fs.Memfs.adopt fs2 path ~size ~blocks with
    | Ok () -> ()
    | Error e -> Alcotest.failf "adopt: %a" Fs.Fs_error.pp e
  in
  adopt "/resurrected" 1024 blocks_a;
  adopt "/sparse" size_h blocks_h;
  Alcotest.(check int) "adopted size" 1024 (ok (Fs.Memfs.file_size fs2 "/resurrected"));
  Alcotest.(check bool) "blocks stay at their slots" true
    (Fs.Memfs.enumerate fs2
    = [ ("/resurrected", 1024, blocks_a); ("/sparse", size_h, blocks_h) ]);
  Alcotest.check_raises "unknown block rejected"
    (Invalid_argument "Memfs.adopt: unknown block") (fun () ->
      ignore (Fs.Memfs.adopt fs2 "/bogus" ~size:512 ~blocks:[ (0, 999_999) ]))

(* Random operation sequences keep the FS and the storage manager consistent. *)
let prop_random_ops_consistent =
  QCheck.Test.make ~name:"memfs: random ops keep sizes consistent" ~count:50
    QCheck.(list_of_size (Gen.int_range 5 60) (pair (int_bound 4) (int_bound 3)))
    (fun ops ->
      let _e, fs = make () in
      let shadow = Hashtbl.create 8 in
      List.iter
        (fun (file, action) ->
          let path = Printf.sprintf "/f%d" file in
          match action with
          | 0 -> begin
            match Fs.Memfs.create fs path with
            | Ok _ -> Hashtbl.replace shadow path 0
            | Error Fs.Fs_error.Eexist -> ()
            | Error e -> Alcotest.failf "create: %a" Fs.Fs_error.pp e
          end
          | 1 ->
            if Hashtbl.mem shadow path then begin
              ignore (Fs.Memfs.write fs path ~offset:0 ~bytes:700 |> Result.get_ok);
              Hashtbl.replace shadow path (max 700 (Hashtbl.find shadow path))
            end
          | 2 ->
            if Hashtbl.mem shadow path then begin
              ignore (Fs.Memfs.unlink fs path |> Result.get_ok);
              Hashtbl.remove shadow path
            end
          | _ ->
            if Hashtbl.mem shadow path then
              ignore (Fs.Memfs.read fs path ~offset:0 ~bytes:512 |> Result.get_ok))
        ops;
      (match Fs.Memfs.check fs with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "fsck: %s" msg);
      ignore (Fs.Memfs.sync fs);
      (match Fs.Memfs.check fs with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "fsck after sync: %s" msg);
      Hashtbl.fold
        (fun path size acc ->
          acc && Fs.Memfs.exists fs path && Fs.Memfs.file_size fs path = Ok size)
        shadow true)

(* --- Blockmap (white-box) ---------------------------------------------------------- *)

let test_blockmap_edges () =
  let open Fs.Memfs.Blockmap in
  let m = create () in
  Alcotest.(check int) "empty length" 0 (length m);
  Alcotest.(check int) "find on empty" no_block (find m 0);
  Alcotest.(check int) "find beyond an empty map" no_block (find m 5);
  set m 3 42;
  Alcotest.(check int) "length grows past holes" 4 (length m);
  Alcotest.(check int) "intermediate slot is a hole" no_block (find m 1);
  Alcotest.(check int) "find returns the handle" 42 (find m 3);
  Alcotest.(check int) "beyond length" no_block (find m 100);
  Alcotest.check_raises "negative handle rejected"
    (Invalid_argument "Blockmap.set: negative block") (fun () -> set m 0 (-2));
  let cropped n =
    let dropped = ref [] in
    crop m n (fun b -> dropped := b :: !dropped);
    List.rev !dropped
  in
  Alcotest.(check (list int)) "crop beyond length drops nothing" [] (cropped 10);
  Alcotest.(check int) "crop beyond length keeps length" 4 (length m);
  Alcotest.(check (list int)) "negative crop drops all live" [ 42 ] (cropped (-3));
  Alcotest.(check int) "negative crop empties" 0 (length m)

(* Random set/crop interleavings agree with a hashtable model, slot for
   slot, including the dropped handles crop hands out, in order. *)
let prop_blockmap_model =
  QCheck.Test.make ~name:"memfs: blockmap matches its model" ~count:300
    QCheck.(
      list_of_size (Gen.int_range 1 40) (triple (int_bound 1) (int_bound 40) (int_bound 500)))
    (fun ops ->
      let m = Fs.Memfs.Blockmap.create () in
      let model = Hashtbl.create 16 in
      let model_len = ref 0 in
      let ok = ref true in
      List.iter
        (fun (kind, i, v) ->
          if kind = 0 then begin
            Fs.Memfs.Blockmap.set m i v;
            Hashtbl.replace model i v;
            model_len := max !model_len (i + 1)
          end
          else begin
            let n = i - 2 (* exercise negative crops too *) in
            let dropped = ref [] in
            Fs.Memfs.Blockmap.crop m n (fun b -> dropped := b :: !dropped);
            let dropped = List.rev !dropped in
            let floor = max n 0 in
            let expect =
              List.init (max 0 (!model_len - floor)) (fun k -> floor + k)
              |> List.filter_map (fun j ->
                     Option.map (fun v -> (j, v)) (Hashtbl.find_opt model j))
            in
            List.iter (fun (j, _) -> Hashtbl.remove model j) expect;
            model_len := min !model_len floor;
            if dropped <> List.map snd expect then ok := false
          end)
        ops;
      ok := !ok && Fs.Memfs.Blockmap.length m = !model_len;
      for j = 0 to !model_len + 4 do
        let expect =
          if j < !model_len then
            Option.value (Hashtbl.find_opt model j) ~default:Fs.Memfs.Blockmap.no_block
          else Fs.Memfs.Blockmap.no_block
        in
        if Fs.Memfs.Blockmap.find m j <> expect then ok := false
      done;
      let live = ref [] in
      Fs.Memfs.Blockmap.iter_live (fun b -> live := b :: !live) m;
      let expect_live =
        List.init !model_len Fun.id |> List.filter_map (Hashtbl.find_opt model)
      in
      !ok && List.rev !live = expect_live)

(* Each [_in] operation shares its implementation with its path twin; a
   route must charge exactly what the walk charges.  The same random
   operations run by path on one file system and through a route on
   another must agree on every result and span, and leave the same DRAM
   traffic behind.  Leaves sit two directories down, and "sub" is a
   directory, so depth charges and the Eisdir cases are exercised. *)
let prop_route_ops_match_paths =
  QCheck.Test.make ~name:"memfs: route ops match path ops" ~count:100
    QCheck.(list (triple (int_bound 5) (int_bound 6) (pair (int_bound 9000) (int_bound 5000))))
    (fun ops ->
      let setup () =
        let _e, fs = make () in
        List.iter (fun d -> ignore (ok (Fs.Memfs.mkdir fs d))) [ "/d"; "/d/e"; "/d/e/sub" ];
        fs
      in
      let by_path = setup () and by_route = setup () in
      let dir = ok (Fs.Memfs.route by_route "/d/e") in
      let span = Result.map Time.span_to_ns in
      let results =
        List.map
          (fun (op, leaf, (a, b)) ->
            let name = if leaf = 6 then "sub" else "f" ^ string_of_int leaf in
            let path = "/d/e/" ^ name in
            let m = by_path and r = by_route in
            match op with
            | 0 -> (span (Fs.Memfs.create m path), span (Fs.Memfs.create_in r dir name))
            | 1 ->
              let e = Fs.Memfs.exists m path and e' = Fs.Memfs.exists_in r dir name in
              (Ok (Bool.to_int e), Ok (Bool.to_int e'))
            | 2 ->
              ( span (Fs.Memfs.write m path ~offset:a ~bytes:b),
                span (Fs.Memfs.write_in r dir name ~offset:a ~bytes:b) )
            | 3 ->
              ( span (Fs.Memfs.read m path ~offset:a ~bytes:b),
                span (Fs.Memfs.read_in r dir name ~offset:a ~bytes:b) )
            | 4 ->
              ( span (Fs.Memfs.truncate m path ~size:a),
                span (Fs.Memfs.truncate_in r dir name ~size:a) )
            | _ -> (span (Fs.Memfs.unlink m path), span (Fs.Memfs.unlink_in r dir name)))
          ops
      in
      let dram fs =
        let d = Storage.Store.dram (Fs.Memfs.store fs) in
        (Device.Dram.reads d, Device.Dram.writes d)
      in
      List.for_all (fun (a, b) -> a = b) results
      && dram by_path = dram by_route
      && Fs.Memfs.enumerate by_path = Fs.Memfs.enumerate by_route)

let suite =
  [
    Alcotest.test_case "namespace" `Quick test_create_and_namespace;
    Alcotest.test_case "write/read sizes" `Quick test_write_read_sizes;
    Alcotest.test_case "metadata DRAM-fast" `Quick test_metadata_ops_are_dram_fast;
    Alcotest.test_case "truncate frees" `Quick test_truncate_frees_blocks;
    Alcotest.test_case "unlink & rmdir" `Quick test_unlink_and_rmdir;
    Alcotest.test_case "flat block map" `Quick test_no_indirect_blocks_flat_map;
    Alcotest.test_case "preload cold" `Quick test_preload_goes_cold;
    Alcotest.test_case "metadata accounting" `Quick test_metadata_bytes_grow;
    Alcotest.test_case "sync flushes" `Quick test_sync_flushes;
    Alcotest.test_case "enumerate & adopt" `Quick test_enumerate_and_adopt;
    Alcotest.test_case "blockmap edges" `Quick test_blockmap_edges;
    QCheck_alcotest.to_alcotest prop_blockmap_model;
    QCheck_alcotest.to_alcotest prop_random_ops_consistent;
    QCheck_alcotest.to_alcotest prop_route_ops_match_paths;
  ]
