(* Path parsing, errors, and the buffer cache / inode math underpinning Ffs. *)

let err = Alcotest.testable Fs.Fs_error.pp Fs.Fs_error.equal

(* --- Path -------------------------------------------------------------------- *)

let test_path_parse () =
  Alcotest.(check (result (list string) err)) "root" (Ok []) (Fs.Path.parse "/");
  Alcotest.(check (result (list string) err)) "simple" (Ok [ "a"; "b" ])
    (Fs.Path.parse "/a/b");
  Alcotest.(check (result (list string) err)) "double slash collapses"
    (Ok [ "a"; "b" ]) (Fs.Path.parse "/a//b");
  Alcotest.(check (result (list string) err)) "trailing slash ok" (Ok [ "a" ])
    (Fs.Path.parse "/a/");
  List.iter
    (fun bad ->
      Alcotest.(check (result (list string) err))
        bad
        (Error Fs.Fs_error.Einval)
        (Fs.Path.parse bad))
    [ ""; "relative"; "a/b"; "/a/../b"; "/./a" ]

let test_path_print_split () =
  Alcotest.(check string) "root prints" "/" (Fs.Path.to_string []);
  Alcotest.(check string) "nested" "/x/y" (Fs.Path.to_string [ "x"; "y" ]);
  Alcotest.(check bool) "split root" true (Fs.Path.split_last [] = None);
  (match Fs.Path.split_last [ "a"; "b"; "c" ] with
  | Some (parent, leaf) ->
    Alcotest.(check (list string)) "parent" [ "a"; "b" ] parent;
    Alcotest.(check string) "leaf" "c" leaf
  | None -> Alcotest.fail "split failed");
  Alcotest.(check bool) "valid name" true (Fs.Path.valid_name "file.txt");
  Alcotest.(check bool) "dot invalid" false (Fs.Path.valid_name ".");
  Alcotest.(check bool) "slash invalid" false (Fs.Path.valid_name "a/b")

let test_error_strings () =
  Alcotest.(check string) "enoent" "ENOENT" (Fs.Fs_error.to_string Fs.Fs_error.Enoent);
  Alcotest.(check string) "enospc" "ENOSPC" (Fs.Fs_error.to_string Fs.Fs_error.Enospc)

let prop_path_roundtrip =
  QCheck.Test.make ~name:"path: parse/print roundtrip" ~count:300
    QCheck.(list_of_size (Gen.int_range 0 5) (string_gen_of_size (Gen.int_range 1 8) Gen.printable))
    (fun components ->
      let components = List.filter Fs.Path.valid_name components in
      let s = Fs.Path.to_string components in
      match Fs.Path.parse s with
      | Ok parsed -> parsed = components
      | Error _ -> false)

(* --- Buffer cache --------------------------------------------------------------- *)

module Buffer_cache = Storage.Buffer_cache

let fs_cache capacity_blocks = Buffer_cache.create ~probe:"fs.buffer_cache" ~capacity_blocks

let test_cache_basic_lru () =
  let c = fs_cache 2 in
  Alcotest.(check bool) "miss first" true (Buffer_cache.find c ~key:1 = Buffer_cache.Miss);
  ignore (Buffer_cache.insert c ~key:1 ~dirty:false);
  ignore (Buffer_cache.insert c ~key:2 ~dirty:false);
  Alcotest.(check bool) "hit" true (Buffer_cache.find c ~key:1 = Buffer_cache.Hit);
  (* 2 is now LRU; inserting 3 evicts it. *)
  ignore (Buffer_cache.insert c ~key:3 ~dirty:false);
  Alcotest.(check bool) "lru evicted" false (Buffer_cache.contains c ~key:2);
  Alcotest.(check bool) "recent kept" true (Buffer_cache.contains c ~key:1);
  Alcotest.(check int) "hits" 1 (Buffer_cache.hits c);
  Alcotest.(check int) "misses" 1 (Buffer_cache.misses c)

let test_cache_dirty_writeback () =
  let c = fs_cache 2 in
  ignore (Buffer_cache.insert c ~key:1 ~dirty:true);
  ignore (Buffer_cache.insert c ~key:2 ~dirty:false);
  let victims = Buffer_cache.insert c ~key:3 ~dirty:false in
  Alcotest.(check (list int)) "dirty victim returned" [ 1 ] victims;
  Alcotest.(check int) "writeback counted" 1 (Buffer_cache.writebacks c);
  (* Clean evictions return nothing. *)
  let victims2 = Buffer_cache.insert c ~key:4 ~dirty:false in
  Alcotest.(check (list int)) "clean eviction silent" [] victims2

let test_cache_mark_dirty_and_take () =
  let c = fs_cache 4 in
  ignore (Buffer_cache.insert c ~key:1 ~dirty:false);
  ignore (Buffer_cache.insert c ~key:2 ~dirty:true);
  Alcotest.(check (list int)) "mark resident" [] (Buffer_cache.insert c ~key:1 ~dirty:true);
  Alcotest.(check bool) "mark absent" false (Buffer_cache.is_dirty c ~key:9);
  let dirty = Buffer_cache.take_dirty c in
  Alcotest.(check (list int)) "oldest first" [ 1; 2 ] (List.sort compare dirty);
  Alcotest.(check bool) "bits cleared" false (Buffer_cache.is_dirty c ~key:1);
  Alcotest.(check bool) "still resident" true (Buffer_cache.contains c ~key:1)

let test_cache_forget () =
  let c = fs_cache 2 in
  ignore (Buffer_cache.insert c ~key:1 ~dirty:true);
  Buffer_cache.forget c ~key:1;
  Alcotest.(check bool) "gone" false (Buffer_cache.contains c ~key:1);
  (* Forgotten dirty block never writes back. *)
  ignore (Buffer_cache.insert c ~key:2 ~dirty:false);
  ignore (Buffer_cache.insert c ~key:3 ~dirty:false);
  let victims = Buffer_cache.insert c ~key:4 ~dirty:false in
  Alcotest.(check (list int)) "no stale writeback" [] victims

let test_cache_zero_capacity () =
  let c = fs_cache 0 in
  let victims = Buffer_cache.insert c ~key:1 ~dirty:true in
  Alcotest.(check (list int)) "dirty passes through" [ 1 ] victims;
  Alcotest.(check bool) "not retained" false (Buffer_cache.contains c ~key:1)

(* The counting contract: find_or_insert records exactly one hit or one
   miss, where the old find-then-insert composition double-touched recency
   and let callers miscount. *)
let test_cache_find_or_insert_counts_once () =
  let c = fs_cache 2 in
  (match Buffer_cache.find_or_insert c ~key:1 ~dirty:false with
  | Buffer_cache.Miss, victims ->
    Alcotest.(check (list int)) "no victims in empty cache" [] victims
  | Buffer_cache.Hit, _ -> Alcotest.fail "empty cache cannot hit");
  Alcotest.(check int) "one miss" 1 (Buffer_cache.misses c);
  Alcotest.(check int) "no hits" 0 (Buffer_cache.hits c);
  (match Buffer_cache.find_or_insert c ~key:1 ~dirty:true with
  | Buffer_cache.Hit, victims ->
    Alcotest.(check (list int)) "hit returns no victims" [] victims
  | Buffer_cache.Miss, _ -> Alcotest.fail "resident key must hit");
  Alcotest.(check int) "one hit" 1 (Buffer_cache.hits c);
  Alcotest.(check int) "still one miss" 1 (Buffer_cache.misses c);
  (* The hit arm ORed the dirty bit in. *)
  Alcotest.(check bool) "dirty after hit" true (Buffer_cache.is_dirty c ~key:1);
  (* The hit refreshed recency: 1 survives insertion of 2 and 3. *)
  ignore (Buffer_cache.find_or_insert c ~key:2 ~dirty:false);
  ignore (Buffer_cache.find_or_insert c ~key:3 ~dirty:false);
  Alcotest.(check bool) "recency refreshed" true (Buffer_cache.contains c ~key:3);
  Alcotest.(check int) "three misses total" 3 (Buffer_cache.misses c)

let test_cache_reset_counters () =
  let c = fs_cache 1 in
  ignore (Buffer_cache.find_or_insert c ~key:1 ~dirty:true);
  ignore (Buffer_cache.find_or_insert c ~key:1 ~dirty:false);
  ignore (Buffer_cache.find_or_insert c ~key:2 ~dirty:false);
  Alcotest.(check bool) "counters non-zero" true
    (Buffer_cache.hits c > 0 && Buffer_cache.misses c > 0
    && Buffer_cache.writebacks c > 0);
  Buffer_cache.reset_counters c;
  Alcotest.(check int) "hits cleared" 0 (Buffer_cache.hits c);
  Alcotest.(check int) "misses cleared" 0 (Buffer_cache.misses c);
  Alcotest.(check int) "writebacks cleared" 0 (Buffer_cache.writebacks c);
  Alcotest.(check bool) "residency kept" true (Buffer_cache.contains c ~key:2)

let test_cache_reinsert_keeps_dirty () =
  let c = fs_cache 2 in
  ignore (Buffer_cache.insert c ~key:1 ~dirty:true);
  ignore (Buffer_cache.insert c ~key:1 ~dirty:false);
  Alcotest.(check bool) "dirty bit sticky" true (Buffer_cache.is_dirty c ~key:1)

let prop_cache_never_exceeds_capacity =
  QCheck.Test.make ~name:"cache: size <= capacity" ~count:300
    QCheck.(pair (int_range 1 8) (list (pair (int_bound 30) bool)))
    (fun (cap, ops) ->
      let c = fs_cache cap in
      List.iter (fun (key, dirty) -> ignore (Buffer_cache.insert c ~key ~dirty)) ops;
      Buffer_cache.size c <= cap)

(* --- Buffer cache against its oracle ----------------------------------------

   The production cache against [Buffer_cache_oracle] (the Hashtbl and
   linked-node implementation it replaced), op for op on random traces:
   finds, clean and dirty inserts, finds-or-inserts, forgets, clears and
   dirty sweeps.  After every op the results must agree, and so must
   [size], [contains] and [is_dirty] for every key and the hit, miss and
   writeback counters.  A third of the ops re-insert the key forgotten
   last, and keys are drawn from about twice the capacity, so the index's
   probe runs collide, wrap past the table's end and shift back on every
   kind of deletion. *)

module BO = Buffer_cache_oracle

(* [None], or the first mismatch of the trace seeded [seed]. *)
let cache_oracle_mismatch ~capacity ~seed ~ops =
  let rng = Sim.Rng.create ~seed in
  let nkeys = max 4 ((2 * capacity) + Sim.Rng.int rng (capacity + 4)) in
  let c = Buffer_cache.create ~probe:"test.buffer_cache" ~capacity_blocks:capacity in
  let o = BO.create ~probe:"test.buffer_cache_oracle" ~capacity_blocks:capacity in
  let mismatch = ref None and i = ref 0 and forgotten = ref 0 in
  let check what agree =
    if Option.is_none !mismatch && not agree then
      mismatch :=
        Some (Printf.sprintf "capacity %d, seed %d, op %d: %s" capacity seed !i what)
  in
  let same a b = (a = Buffer_cache.Hit) = (b = BO.Hit) in
  let find_or_insert key ~dirty =
    let r, v = Buffer_cache.find_or_insert c ~key ~dirty in
    let r', v' = BO.find_or_insert o ~key ~dirty in
    check "find_or_insert" (same r r' && v = v')
  in
  while !i < ops && Option.is_none !mismatch do
    let key = Sim.Rng.int rng nkeys and dirty = Sim.Rng.bool rng in
    (match Sim.Rng.int rng 100 with
    | k when k < 15 -> check "find" (same (Buffer_cache.find c ~key) (BO.find o ~key))
    | k when k < 35 ->
      check "insert" (Buffer_cache.insert c ~key ~dirty = BO.insert o ~key ~dirty)
    | k when k < 55 -> find_or_insert key ~dirty
    | k when k < 70 ->
      Buffer_cache.forget c ~key;
      BO.forget o ~key;
      forgotten := key
    | k when k < 92 ->
      if Sim.Rng.bool rng then find_or_insert !forgotten ~dirty
      else
        check "re-insert"
          (Buffer_cache.insert c ~key:!forgotten ~dirty
          = BO.insert o ~key:!forgotten ~dirty)
    | k when k < 98 -> check "take_dirty" (Buffer_cache.take_dirty c = BO.take_dirty o)
    | _ ->
      Buffer_cache.clear c;
      BO.clear o);
    check "size" (Buffer_cache.size c = BO.size o);
    for key = 0 to nkeys - 1 do
      check "contains" (Buffer_cache.contains c ~key = BO.contains o ~key);
      check "is_dirty" (Buffer_cache.is_dirty c ~key = BO.is_dirty o ~key)
    done;
    check "counters"
      (Buffer_cache.hits c = BO.hits o
      && Buffer_cache.misses c = BO.misses o
      && Buffer_cache.writebacks c = BO.writebacks o);
    incr i
  done;
  !mismatch

let test_cache_matches_oracle () =
  List.iter
    (fun (capacity, traces, ops) ->
      for seed = 1 to traces do
        match cache_oracle_mismatch ~capacity ~seed ~ops with
        | None -> ()
        | Some what -> Alcotest.failf "differs from the oracle at %s" what
      done)
    [ (0, 20, 300); (1, 100, 500); (2, 100, 500); (5, 100, 1000); (256, 3, 3000) ]

let test_cache_negative_key () =
  let c = fs_cache 4 in
  Alcotest.check_raises "negative key rejected"
    (Invalid_argument "Buffer_cache: negative key") (fun () ->
      ignore (Buffer_cache.insert c ~key:(-1) ~dirty:false))

(* --- Ffs inode math --------------------------------------------------------------- *)

let ptrs = Fs.Ffs_inode.ptrs_per_block ~block_bytes:4096 (* 512 *)

let test_classify_boundaries () =
  let open Fs.Ffs_inode in
  Alcotest.(check bool) "first direct" true (classify ~ptrs 0 = Some (Direct 0));
  Alcotest.(check bool) "last direct" true (classify ~ptrs 11 = Some (Direct 11));
  Alcotest.(check bool) "first single" true (classify ~ptrs 12 = Some (Single 0));
  Alcotest.(check bool) "last single" true
    (classify ~ptrs (12 + ptrs - 1) = Some (Single (ptrs - 1)));
  Alcotest.(check bool) "first double" true
    (classify ~ptrs (12 + ptrs) = Some (Double (0, 0)));
  Alcotest.(check bool) "double split" true
    (classify ~ptrs (12 + ptrs + ptrs + 3) = Some (Double (1, 3)));
  Alcotest.(check bool) "beyond max" true
    (classify ~ptrs (max_blocks ~ptrs) = None);
  Alcotest.check_raises "negative" (Invalid_argument "Ffs_inode.classify: negative index")
    (fun () -> ignore (classify ~ptrs (-1)))

let test_depths () =
  let open Fs.Ffs_inode in
  Alcotest.(check int) "direct depth" 0 (indirect_depth ~ptrs 5);
  Alcotest.(check int) "single depth" 1 (indirect_depth ~ptrs 100);
  Alcotest.(check int) "double depth" 2 (indirect_depth ~ptrs (12 + ptrs + 5))

let test_max_blocks () =
  Alcotest.(check int) "max blocks" (12 + 512 + (512 * 512))
    (Fs.Ffs_inode.max_blocks ~ptrs:512);
  (* That is over a gigabyte of 4KB blocks: plenty for 1993. *)
  Alcotest.(check bool) "addresses > 1GB" true
    (Fs.Ffs_inode.max_blocks ~ptrs:512 * 4096 > 1 lsl 30)

let prop_classify_total_and_ordered =
  QCheck.Test.make ~name:"ffs_inode: classification covers indexes in order" ~count:500
    (QCheck.int_bound (12 + 512 + (512 * 512) - 1))
    (fun i ->
      match Fs.Ffs_inode.classify ~ptrs:512 i with
      | Some (Fs.Ffs_inode.Direct d) -> i < 12 && d = i
      | Some (Fs.Ffs_inode.Single j) -> i >= 12 && i < 12 + 512 && j = i - 12
      | Some (Fs.Ffs_inode.Double (j, k)) ->
        let r = i - 12 - 512 in
        j = r / 512 && k = r mod 512
      | None -> false)

let suite =
  [
    Alcotest.test_case "path parse" `Quick test_path_parse;
    Alcotest.test_case "path print/split" `Quick test_path_print_split;
    Alcotest.test_case "error strings" `Quick test_error_strings;
    QCheck_alcotest.to_alcotest prop_path_roundtrip;
    Alcotest.test_case "cache LRU" `Quick test_cache_basic_lru;
    Alcotest.test_case "cache dirty writeback" `Quick test_cache_dirty_writeback;
    Alcotest.test_case "cache mark/take dirty" `Quick test_cache_mark_dirty_and_take;
    Alcotest.test_case "cache forget" `Quick test_cache_forget;
    Alcotest.test_case "cache zero capacity" `Quick test_cache_zero_capacity;
    Alcotest.test_case "cache find_or_insert counts once" `Quick
      test_cache_find_or_insert_counts_once;
    Alcotest.test_case "cache reset_counters" `Quick test_cache_reset_counters;
    Alcotest.test_case "cache sticky dirty" `Quick test_cache_reinsert_keeps_dirty;
    QCheck_alcotest.to_alcotest prop_cache_never_exceeds_capacity;
    Alcotest.test_case "cache matches the oracle op for op" `Quick
      test_cache_matches_oracle;
    Alcotest.test_case "cache rejects negative keys" `Quick test_cache_negative_key;
    Alcotest.test_case "inode classify boundaries" `Quick test_classify_boundaries;
    Alcotest.test_case "inode depths" `Quick test_depths;
    Alcotest.test_case "inode max blocks" `Quick test_max_blocks;
    QCheck_alcotest.to_alcotest prop_classify_total_and_ordered;
  ]
