(* Differential test of the storage manager's decisions.

   The manager answers allocation and cleaning decisions from per-bank
   indexes; {!Scan_oracle} recomputes each of them, and every count the
   manager reports, by full scans over its segment array.  One manager
   runs an operation sequence and the oracle checks it after every
   operation, after an orderly flush, and after a crash and remount — so
   any divergence pins down the exact step, across the whole policy grid.
   The op stream lives in [Ops] so the crash-consistency harness drives
   managers the same way. *)

open Sim

module Ops = struct
  (* A small two-bank flash with a 60-erase endurance, so long streams
     drive many cleanings, sector wear-out and segment retirement. *)
  let config ?diff_log ~cleaner ~wear ~banking ~buffer_blocks () =
    {
      Storage.Manager.default_config with
      Storage.Manager.segment_sectors = 8;
      buffer =
        {
          Storage.Write_buffer.capacity_blocks = buffer_blocks;
          writeback_delay = Time.span_ms 5.0;
          refresh_on_rewrite = true;
        };
      cleaner;
      wear;
      banking;
      diff_log;
    }

  let mk ?(nbanks = 2) ?(size_bytes = 128 * 1024) cfg =
    let engine = Engine.create () in
    let flash =
      Device.Flash.create
        (Device.Flash.config ~nbanks ~endurance_override:60 ~size_bytes ())
    in
    let dram = Device.Dram.create ~size_bytes:Units.mib ~battery_backed:true () in
    (engine, Storage.Manager.create cfg ~engine ~flash ~dram)

  type op = Write of int | Fresh | Free of int | Cold | Advance of int

  let op_of_int n =
    match n mod 6 with
    | 0 | 1 -> Write (n / 6)
    | 2 -> Fresh
    | 3 -> Free (n / 6)
    | 4 -> Advance (1 + (n / 6 mod 20))
    | _ -> Cold

  (* A cheap deterministic op stream. *)
  let lcg_ops ~seed ~len =
    let s = ref seed in
    List.init len (fun _ ->
        s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
        !s mod 100_000)

  (* Drive one manager through the op stream, calling [after] with the
     step index after each op.  Deterministic in the stream, so managers
     fed the same list allocate identical handles.  [live] lists the
     blocks the manager already holds (none by default).  Fills stop at
     60% of capacity, so random streams never hit Out_of_space. *)
  let run_ops ?(after = ignore) ?(live = []) (engine, m) ops =
    let cap = Storage.Manager.capacity_blocks m * 6 / 10 in
    let nlive = ref (List.length live) in
    let live = ref live in
    List.iteri
      (fun step n ->
        (match op_of_int n with
        | Write k when !nlive > 0 ->
          ignore (Storage.Manager.write_block m (List.nth !live (k mod !nlive)))
        | Write _ | Fresh when !nlive < cap ->
          let b = Storage.Manager.alloc m in
          ignore (Storage.Manager.write_block m b);
          live := b :: !live;
          incr nlive
        | Write _ | Fresh -> ()
        | Free k when !nlive > 0 ->
          let b = List.nth !live (k mod !nlive) in
          Storage.Manager.free_block m b;
          live := List.filter (fun x -> x <> b) !live;
          decr nlive
        | Free _ -> ()
        | Cold when !nlive < cap ->
          let b = Storage.Manager.alloc m in
          Storage.Manager.load_cold m b;
          live := b :: !live;
          incr nlive
        | Cold -> ()
        | Advance ms ->
          Engine.run_until engine
            (Time.add (Engine.now engine) (Time.span_ms (float_of_int ms))));
        after step)
      ops

  (* The policy grid the differential tests sweep. *)
  let cleaners = [ Storage.Cleaner.Greedy; Storage.Cleaner.Cost_benefit ]

  let wears = Storage.Wear.[ None_; Dynamic; Static { spread_threshold = 5 } ]

  let bankings = [ Storage.Banks.Unified; Storage.Banks.Partitioned { write_banks = 1 } ]
end

let expect_agreement cfg ~step m =
  match Scan_oracle.check cfg m with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "step %d: %s" step msg

let run_diff ?nbanks ?size_bytes ~ops cfg =
  let engine, m = Ops.mk ?nbanks ?size_bytes cfg in
  Ops.run_ops ~after:(fun step -> expect_agreement cfg ~step m) (engine, m) ops;
  (* Orderly shutdown and crash recovery must agree too. *)
  ignore (Storage.Manager.flush_all m);
  expect_agreement cfg ~step:(List.length ops) m;
  let m', _, _ = Storage.Manager.crash_and_remount m in
  expect_agreement cfg ~step:(-1) m'

let grid_case ~name ~seed ~len =
  Alcotest.test_case name `Slow (fun () ->
      let ops = Ops.lcg_ops ~seed ~len in
      List.iter
        (fun cleaner ->
          List.iter
            (fun wear ->
              List.iter
                (fun banking ->
                  List.iter
                    (fun buffer_blocks ->
                      run_diff ~ops (Ops.config ~cleaner ~wear ~banking ~buffer_blocks ()))
                    [ 0; 8 ])
                Ops.bankings)
            Ops.wears)
        Ops.cleaners)

(* Random sequences on two contrasting corners of the grid. *)
let prop_random_ops_agree ~name ~cleaner ~wear ~banking ~buffer_blocks =
  QCheck.Test.make ~name ~count:25
    QCheck.(list_of_size (Gen.int_range 30 150) (int_bound 99_999))
    (fun ops ->
      run_diff ~ops (Ops.config ~cleaner ~wear ~banking ~buffer_blocks ());
      true)

(* The oracle has teeth: told the wrong policy, it must object at some
   step.  A vacuous oracle (one that compared nothing, or compared the
   manager with itself) would pass every other case here silently.  (A
   wear-policy mismatch would not do: on this small flash the wear spread
   stays under the relocation threshold and steady-state cleaning leaves a
   single free segment, so Static and Dynamic pick alike for 420 ops.) *)
let test_oracle_can_fail () =
  let ops = Ops.lcg_ops ~seed:42 ~len:420 in
  let cfg ?(banking = Storage.Banks.Unified) cleaner =
    Ops.config ~cleaner ~wear:Storage.Wear.Dynamic ~banking ~buffer_blocks:8 ()
  in
  List.iter
    (fun (what, manager_cfg, oracle_cfg) ->
      let engine, m = Ops.mk manager_cfg in
      let objected = ref false in
      Ops.run_ops
        ~after:(fun _ ->
          if Result.is_error (Scan_oracle.check oracle_cfg m) then objected := true)
        (engine, m) ops;
      if not !objected then Alcotest.failf "the oracle never objected to %s" what)
    Storage.Cleaner.
      [
        ("greedy checked as cost-benefit", cfg Greedy, cfg Cost_benefit);
        ("cost-benefit checked as greedy", cfg Cost_benefit, cfg Greedy);
        ( "partitioned banks checked as unified",
          cfg ~banking:(Storage.Banks.Partitioned { write_banks = 1 }) Cost_benefit,
          cfg Cost_benefit );
      ]

(* The oracle's queries only observe: a manager asked for its next free
   pick and victim for every purpose after every op ends in exactly the
   state of one never asked. *)
let test_queries_only_observe () =
  let ops = Ops.lcg_ops ~seed:7 ~len:420 in
  let ask m =
    List.iter
      (fun purpose ->
        List.iter
          (fun restrict ->
            ignore (Storage.Manager.next_free_segment m ~purpose ~restrict))
          [ true; false ];
        ignore (Storage.Manager.next_victim m ~purpose:(Some purpose)))
      Scan_oracle.purposes;
    ignore (Storage.Manager.next_victim m ~purpose:None)
  in
  List.iter
    (fun cleaner ->
      List.iter
        (fun wear ->
          let cfg =
            Ops.config ~cleaner ~wear
              ~banking:(Storage.Banks.Partitioned { write_banks = 1 })
              ~buffer_blocks:8 ()
          in
          let ea, asked = Ops.mk cfg and eb, quiet = Ops.mk cfg in
          Ops.run_ops ~after:(fun _ -> ask asked) (ea, asked) ops;
          Ops.run_ops (eb, quiet) ops;
          let ctx =
            Storage.Cleaner.policy_name cleaner ^ "/" ^ Storage.Wear.policy_name wear
          in
          let module M = Storage.Manager in
          if M.stats asked <> M.stats quiet then Alcotest.failf "%s: stats differ" ctx;
          if M.wear_evenness asked <> M.wear_evenness quiet then
            Alcotest.failf "%s: wear evenness differs" ctx;
          if M.known_blocks asked <> M.known_blocks quiet then
            Alcotest.failf "%s: block sets differ" ctx;
          List.iter
            (fun b ->
              if M.location_of_block asked b <> M.location_of_block quiet b then
                Alcotest.failf "%s: block %d placed differently" ctx b)
            (M.known_blocks asked);
          if not (Time.equal (Engine.now ea) (Engine.now eb)) then
            Alcotest.failf "%s: engine time differs" ctx)
        Ops.wears)
    Ops.cleaners

(* Cost-benefit ties, on a one-bank 32-segment flash with write-through
   writes, checked against the oracle after every op.  Time moves 1 ms
   after each op unless the case holds it still. *)
let tie_case ~wear =
  let cfg =
    Ops.config ~cleaner:Storage.Cleaner.Cost_benefit ~wear ~banking:Storage.Banks.Unified
      ~buffer_blocks:0 ()
  in
  let engine = Engine.create () in
  let flash =
    Device.Flash.create (Device.Flash.config ~nbanks:1 ~size_bytes:(128 * 1024) ())
  in
  let dram = Device.Dram.create ~size_bytes:Units.mib ~battery_backed:true () in
  let m = Storage.Manager.create cfg ~engine ~flash ~dram in
  let step = ref 0 in
  let op ?(advance = true) f =
    f ();
    if advance then
      Engine.run_until engine (Time.add (Engine.now engine) (Time.span_ms 1.0));
    incr step;
    expect_agreement cfg ~step:!step m
  in
  (m, op, cfg.Storage.Manager.segment_sectors)

let blocks_in m seg blocks =
  List.filter (fun b -> Storage.Manager.segment_of_block m b = Some seg) blocks

(* Every closed segment full and the lowest id the youngest: all score 0,
   so the victim is segment 0, not the oldest full segment at the root of
   the full-segment heap.  First-fit allocation hands the cleaned segment
   0 back to the next fresh write. *)
let test_all_full_lowest_id_youngest () =
  let m, op, nslots = tie_case ~wear:Storage.Wear.None_ in
  let module M = Storage.Manager in
  let write () =
    let b = M.alloc m in
    op (fun () -> ignore (M.write_block m b));
    b
  in
  let nsegs = M.nsegments m in
  let filled = List.init ((nsegs - 2) * nslots) (fun _ -> write ()) in
  List.iter (fun b -> op (fun () -> M.free_block m b)) (blocks_in m 0 filled);
  (* One segment's writes use the last spare; the next acquisition cleans
     the empty segment 0 and reopens it. *)
  let refill = List.init (2 * nslots) (fun _ -> write ()) in
  Alcotest.(check int) "segment 0 refilled" nslots (List.length (blocks_in m 0 refill));
  let module Seg = Storage.Segment in
  let segs = M.segments m in
  Array.iter
    (fun seg ->
      if Seg.state seg = Seg.Closed then
        Alcotest.(check int) "closed segments are full" nslots (Seg.live_count seg);
      if Time.( < ) (Seg.last_touched segs.(0)) (Seg.last_touched seg) then
        Alcotest.failf "segment %d is younger than segment 0" (Seg.id seg))
    segs;
  Alcotest.(check (option int)) "victim" (Some 0) (M.next_victim m ~purpose:None)

(* Segments closing at one instant with equal live counts: cold loads fill
   segments 0-3 at one instant, then kills move 3, 2 and 1 (in that order)
   into one live-count bucket, then 3 and 2 into the next.  The lowest id
   of each tied group wins. *)
let test_same_instant_closes () =
  let m, op, nslots = tie_case ~wear:Storage.Wear.Dynamic in
  let module M = Storage.Manager in
  let loaded =
    List.init (4 * nslots) (fun _ ->
        let b = M.alloc m in
        op ~advance:false (fun () -> M.load_cold m b);
        b)
  in
  let lts =
    List.init 4 (fun i -> Storage.Segment.last_touched (M.segments m).(i))
    |> List.sort_uniq Time.compare
  in
  Alcotest.(check int) "segments 0-3 closed at one instant" 1 (List.length lts);
  let live = ref loaded in
  let kill seg =
    let b = List.hd (blocks_in m seg !live) in
    live := List.filter (( <> ) b) !live;
    op (fun () -> M.free_block m b)
  in
  List.iter kill [ 3; 2; 1 ];
  Alcotest.(check (option int)) "one kill each" (Some 1) (M.next_victim m ~purpose:None);
  List.iter kill [ 3; 2 ];
  Alcotest.(check (option int)) "two kills each" (Some 2) (M.next_victim m ~purpose:None)

(* Static wear leveling parks cold data on the most-worn free segment.
   The other cases here cannot see which free segment a cold pick takes:
   cleaning starts only below two free segments, so a clean-out pick
   rarely finds free segments of different wear in one bank, and cold
   loads at the start see only zero erase counts.  So this flash is worn
   unevenly before the manager mounts it: on one 64 KB bank with 8-sector
   segments, segment i has [3i mod 7] erases, so segment 2 (6 erases, the
   lowest such id) is the cold pick and segment 0 (none) the hot one.
   The run that follows starts with a spread of 3.2 erases over the mean,
   past the threshold of 2, so it relocates too; it goes on through a
   crash and remount, where the trigger's erase total and maximum are
   rebuilt from the flash, and 300 more ops on the recovered blocks. *)
let test_static_cold_pick () =
  let module M = Storage.Manager in
  let cfg =
    Ops.config ~cleaner:Storage.Cleaner.Cost_benefit
      ~wear:(Storage.Wear.Static { spread_threshold = 2 })
      ~banking:Storage.Banks.Unified ~buffer_blocks:8 ()
  in
  let engine = Engine.create () in
  let flash =
    Device.Flash.create (Device.Flash.config ~nbanks:1 ~size_bytes:(64 * 1024) ())
  in
  let nslots = cfg.M.segment_sectors in
  for seg = 0 to (Device.Flash.nsectors flash / nslots) - 1 do
    for _ = 1 to 3 * seg mod 7 do
      for sector = seg * nslots to ((seg + 1) * nslots) - 1 do
        ignore (Device.Flash.erase flash ~now:Time.zero ~sector)
      done
    done
  done;
  let dram = Device.Dram.create ~size_bytes:Units.mib ~battery_backed:true () in
  let m = M.create cfg ~engine ~flash ~dram in
  let pick purpose = M.next_free_segment m ~purpose ~restrict:true in
  Alcotest.(check (option int)) "clean-out: the most-worn" (Some 2)
    (pick Storage.Banks.Clean_out);
  Alcotest.(check (option int)) "cold load: the most-worn" (Some 2)
    (pick Storage.Banks.Cold_load);
  Alcotest.(check (option int)) "fresh write: the least-worn" (Some 0)
    (pick Storage.Banks.Fresh_write);
  expect_agreement cfg ~step:0 m;
  Ops.run_ops
    ~after:(fun step -> expect_agreement cfg ~step:(step + 1) m)
    (engine, m)
    (Ops.lcg_ops ~seed:3 ~len:300);
  Alcotest.(check bool) "the run relocated or cleaned" true ((M.stats m).M.cleanings > 0);
  let m, _, _ = M.crash_and_remount m in
  expect_agreement cfg ~step:301 m;
  Ops.run_ops ~live:(M.known_blocks m)
    ~after:(fun step -> expect_agreement cfg ~step:(step + 302) m)
    (engine, m)
    (Ops.lcg_ops ~seed:4 ~len:300);
  Alcotest.(check bool) "the remounted run cleaned" true ((M.stats m).M.cleanings > 0)

(* A manager mounted on flash that wear-out has already reached retires
   the worn segments before it programs anything.  One 64 KB bank with
   endurance 3, sector 3 erased three times: segment 0 is worn, so first
   fit skips it.  Write-through, so every write programs a sector; the
   oracle reads retirement from the device's bad sectors. *)
let test_mount_on_worn_flash () =
  let module M = Storage.Manager in
  let cfg =
    Ops.config ~cleaner:Storage.Cleaner.Cost_benefit ~wear:Storage.Wear.None_
      ~banking:Storage.Banks.Unified ~buffer_blocks:0 ()
  in
  let engine = Engine.create () in
  let flash =
    Device.Flash.create
      (Device.Flash.config ~nbanks:1 ~endurance_override:3 ~size_bytes:(64 * 1024) ())
  in
  for _ = 1 to 3 do
    ignore (Device.Flash.erase flash ~now:Time.zero ~sector:3)
  done;
  let dram = Device.Dram.create ~size_bytes:Units.mib ~battery_backed:true () in
  let m = M.create cfg ~engine ~flash ~dram in
  Alcotest.(check int) "segment 0 retired at mount" 1 (M.stats m).M.retired_segments;
  expect_agreement cfg ~step:0 m;
  Ops.run_ops
    ~after:(fun step -> expect_agreement cfg ~step:(step + 1) m)
    (engine, m)
    (Ops.lcg_ops ~seed:5 ~len:200);
  let m, _, _ = M.crash_and_remount m in
  expect_agreement cfg ~step:201 m

(* Banks that are not a whole number of segments: 3 banks of 100
   sectors in 8-sector segments leave 4 spare sectors at the end of each
   bank, so a segment's first sector is not [id * 8] past bank 0.  Every
   other geometry here divides evenly, where inverting a sector to its
   segment and slot by [sector / 8] and [sector mod 8] happens to work;
   the oracle's placement check catches either slip here. *)
let test_ragged_banks () =
  let ops = Ops.lcg_ops ~seed:11 ~len:300 in
  List.iter
    (fun cleaner ->
      List.iter
        (fun diff_log ->
          run_diff ~nbanks:3 ~size_bytes:(3 * 100 * 512) ~ops
            (Ops.config ?diff_log ~cleaner ~wear:Storage.Wear.Dynamic
               ~banking:Storage.Banks.Unified ~buffer_blocks:8 ()))
        [ None; Some Storage.Diff_log.default_config ])
    Ops.cleaners

(* The cleaner moves the base page of a chained block that sits dirty: the
   copy becomes the block's home, so its placement, the delta the next
   flush chains to it and a remount all follow the base out of the cleaned
   segment.  One 64 KB bank in 8-sector segments, greedy cleaning, first
   fit: the chained block's base is alone in segment 0, and every cold
   batch leaves 2 of 8 blocks live, so segment 0 is the first victim. *)
let test_cleaner_moves_dirty_base () =
  let module M = Storage.Manager in
  let cfg =
    Ops.config ~diff_log:Storage.Diff_log.default_config ~cleaner:Storage.Cleaner.Greedy
      ~wear:Storage.Wear.None_ ~banking:Storage.Banks.Unified ~buffer_blocks:16 ()
  in
  let _engine, m = Ops.mk ~nbanks:1 ~size_bytes:(64 * 1024) cfg in
  let first = List.init 8 (fun _ -> M.alloc m) in
  List.iter (fun b -> ignore (M.write_block m b)) first;
  ignore (M.flush_all m);
  let b = List.hd first in
  ignore (M.write_block m b);
  List.iter (M.free_block m) (List.tl first);
  let base_seg =
    match M.segment_of_block m b with
    | Some seg -> seg
    | None -> Alcotest.fail "the dirty chained block has no base"
  in
  Alcotest.(check bool) "dirty" true (M.block_is_dirty m b);
  Alcotest.(check int) "chained, no delta yet" 0 (M.delta_chain_length m b);
  (* Cold batches of 8, keeping 2 of each, until the first cleaning. *)
  let batches = ref 0 in
  while (M.stats m).M.cleanings = 0 do
    if !batches = 16 then Alcotest.fail "no cleaning after 16 cold batches";
    incr batches;
    let cold = List.init 8 (fun _ -> M.alloc m) in
    List.iter (M.load_cold m) cold;
    List.iteri (fun i c -> if i >= 2 then M.free_block m c) cold
  done;
  Alcotest.(check int) "the base's segment was cleaned" 1
    (M.segment_snapshots m).(base_seg).M.seg_erases;
  Alcotest.(check bool) "still dirty" true (M.block_is_dirty m b);
  let moved = M.location_of_block m b in
  (match moved with
  | Some (seg, _) when seg <> base_seg -> ()
  | Some _ | None -> Alcotest.fail "its base left the cleaned segment");
  expect_agreement cfg ~step:0 m;
  ignore (M.flush_all m);
  Alcotest.(check int) "the flush chained one delta" 1 (M.delta_chain_length m b);
  Alcotest.(check (option (pair int int))) "flushed onto the moved base" moved
    (M.location_of_block m b);
  expect_agreement cfg ~step:1 m;
  let m', _, _ = M.crash_and_remount m in
  Alcotest.(check (option (pair int int))) "remount keeps the base" moved
    (M.location_of_block m' b);
  Alcotest.(check int) "remount keeps the chain" 1 (M.delta_chain_length m' b);
  expect_agreement cfg ~step:2 m'

let suite =
  [
    grid_case ~name:"scan vs indexed: policy grid" ~seed:42 ~len:420;
    grid_case ~name:"scan vs indexed: policy grid (alt seed)" ~seed:7 ~len:260;
    QCheck_alcotest.to_alcotest
      (prop_random_ops_agree ~name:"manager_diff: random ops (cost-benefit/dynamic)"
         ~cleaner:Storage.Cleaner.Cost_benefit ~wear:Storage.Wear.Dynamic
         ~banking:Storage.Banks.Unified ~buffer_blocks:8);
    QCheck_alcotest.to_alcotest
      (prop_random_ops_agree
         ~name:"manager_diff: random ops (greedy/static/partitioned/write-through)"
         ~cleaner:Storage.Cleaner.Greedy
         ~wear:(Storage.Wear.Static { spread_threshold = 4 })
         ~banking:(Storage.Banks.Partitioned { write_banks = 1 })
         ~buffer_blocks:0);
    Alcotest.test_case "oracle objects to the wrong policy" `Quick test_oracle_can_fail;
    Alcotest.test_case "decision queries only observe" `Quick test_queries_only_observe;
    Alcotest.test_case "cost-benefit tie: all full, lowest id youngest" `Quick
      test_all_full_lowest_id_youngest;
    Alcotest.test_case "cost-benefit tie: same-instant closes" `Quick
      test_same_instant_closes;
    Alcotest.test_case "static: cold data on the most-worn free segment" `Quick
      test_static_cold_pick;
    Alcotest.test_case "mount on worn flash retires worn segments" `Quick
      test_mount_on_worn_flash;
    Alcotest.test_case "banks not a whole number of segments" `Quick test_ragged_banks;
    Alcotest.test_case "cleaner moves a dirty chained block's base" `Quick
      test_cleaner_moves_dirty_base;
  ]
