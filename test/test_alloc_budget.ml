(* Allocation ceilings.  Minor-heap words per operation are deterministic
   for a build, so a level reached is held by a test: a change that
   allocates more on a hot path fails here, not only on the benchmark.

   The per-block path allocates nothing in steady state from the write
   buffer down: the device models, their energy meters and the statistics
   accumulators are held at 0 words per call, and so is every write-buffer
   operation, its deadline queue included, every segment-index update and
   pick, and a block's allocation and free in the manager's block table.  So is the array path above it: the front cache's
   lookups, inserts and forgets, parity routing, and block reads through
   an array (front-cache hit or miss) or one card.

   The cleaning ceiling runs a churn-shaped storage-manager workload —
   4 banks filled to 85% with cold data, then 1 s rounds of 96 Zipf(1.0)
   rewrites and 32 uniform reads (three writes then a read) — at two card
   sizes.  A cost-benefit victim pick allocates nothing however many
   segments the card holds: a [Manager.next_victim] call may allocate
   only the [Some] of its result (2 words) at either size.  Per op, the
   larger card flushes more blocks and re-arms its timer more often (the
   workload, not the pick), so the two may differ by a bounded number of
   words, not a ratio.

   The storage ceilings hold the manager's other hot paths with probes
   off: write-through rewrites, an array's writeback drain at 1, 2 and 4
   cards, and the array front cache's forget/insert/hit cycle.  Two
   whole-machine ceilings hold words per trace record on a 60 s
   engineering replay, on one card and on the benchmark's 4-card parity
   array.  Each ceiling is 1.15x the figure measured when it was set,
   except the one-card replay's, which is 1.10x: at 1.15x it would pass
   the level before the free-segment index stopped allocating.  A drain
   issues one group per card, so a 4-card drain may allocate at most a
   bounded number of words more than a 1-card drain, not a ratio, as
   with the churn's card sizes.  A sector program that allocated a
   header record again would break the churn, drain and one-card replay
   ceilings; a queue entry allocated per enqueue the churn and both
   replay ceilings; a free-segment index of [Map]s of [Set]s the churn,
   write-through, drain and both replay ceilings; and wear statistics
   kept in a [Map] of erase levels, updated on every erase, the churn
   (2.90 words/op at 32 MB) and write-through (13.05 words per write)
   ceilings.  A record per block in the block table would break both
   replay ceilings and the block-table budget.

   The footprint ceiling holds a fresh 64 MB machine's reachable heap per
   flash sector, so per-sector state kept as a record per sector shows,
   and so does a block table sized at creation rather than grown as
   handles reach it. *)

open Sim
module Mgr = Storage.Manager

let flash_mib mib =
  Device.Flash.create (Device.Flash.config ~nbanks:4 ~size_bytes:(mib * Units.mib) ())

let dram_mib mib =
  Device.Dram.create ~size_bytes:(mib * Units.mib) ~battery_backed:true ()

let rounds = 1000
let writes_per_round = 96
let reads_per_round = 32

(* Minor words per client op over [rounds] rounds on a [mib] MB card,
   setup and the op stream's generation excluded, and minor words per
   [Manager.next_victim] call on the churned card. *)
let churn_words ~mib =
  let engine = Engine.create () in
  let m =
    Mgr.create Mgr.default_config ~engine ~flash:(flash_mib mib) ~dram:(dram_mib 2)
  in
  let nblocks = Mgr.capacity_blocks m * 85 / 100 in
  let blocks = Array.init nblocks (fun _ -> Mgr.alloc m) in
  Array.iter (Mgr.load_cold m) blocks;
  let rng = Rng.create ~seed:1 in
  let zipf = Distribution.Zipf.create ~n:nblocks ~s:1.0 in
  let draw n f = Array.init (rounds * n) (fun _ -> blocks.(f ())) in
  let writes = draw writes_per_round (fun () -> Distribution.Zipf.sample zipf rng) in
  let reads = draw reads_per_round (fun () -> Rng.int rng nblocks) in
  let before = Gc.minor_words () in
  for r = 0 to rounds - 1 do
    for k = 0 to reads_per_round - 1 do
      for j = 0 to 2 do
        ignore (Mgr.write_block m writes.((r * writes_per_round) + (3 * k) + j))
      done;
      ignore (Mgr.read_block m reads.((r * reads_per_round) + k))
    done;
    Engine.run_until engine (Time.add (Engine.now engine) (Time.span_s 1.0))
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "the cleaner ran" true ((Mgr.stats m).Mgr.cleanings > 0);
  let picks = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to picks do
    ignore (Mgr.next_victim m ~purpose:None)
  done;
  let per_pick = (Gc.minor_words () -. before) /. float_of_int picks in
  (words /. float_of_int (rounds * (writes_per_round + reads_per_round)), per_pick)

let test_cleaning_ceiling () =
  let small, small_pick = churn_words ~mib:8 and large, large_pick = churn_words ~mib:32 in
  let ceiling = 2.83 and gap = 10.0 and pick = 2.0 in
  Printf.printf "minor words/op: %.2f (8 MB), %.2f (32 MB)\n" small large;
  Printf.printf "minor words/next_victim: %.2f (8 MB), %.2f (32 MB)\n" small_pick
    large_pick;
  let broken =
    List.filter_map Fun.id
      [
        (if small > ceiling || large > ceiling then
           Some (Printf.sprintf "words/op over the %.2f ceiling" ceiling)
         else None);
        (if large -. small > gap then
           Some (Printf.sprintf "32 MB allocates %.1f words/op more than 8 MB; at most %.0f"
                   (large -. small) gap)
         else None);
        (if small_pick > pick || large_pick > pick then
           Some (Printf.sprintf "a victim pick allocates %.2f (8 MB), %.2f (32 MB) words; at most %.0f"
                   small_pick large_pick pick)
         else None);
      ]
  in
  if broken <> [] then Alcotest.fail (String.concat "; " broken)

(* 8-sector segments of 512 B sectors over 4 banks; the write buffer is
   the variable. *)
let storage_config ~capacity_blocks ~delay_s =
  {
    Mgr.default_config with
    Mgr.segment_sectors = 8;
    buffer =
      {
        Storage.Write_buffer.capacity_blocks;
        writeback_delay = Time.span_s delay_s;
        refresh_on_rewrite = false;
      };
  }

let check_ceiling what ~ceiling words =
  Printf.printf "%s: %.2f minor words\n" what words;
  if words > ceiling then
    Alcotest.failf "%s: %.2f minor words; the ceiling is %.2f" what words ceiling

(* Write-through rewrites on a 2 MB card (512 segments) filled to 85%,
   spread over every live block by an LCG: each write acquires space and,
   at steady state, cleans. *)
let test_rewrite_ceiling () =
  let engine = Engine.create () in
  let m =
    Mgr.create (storage_config ~capacity_blocks:0 ~delay_s:1.0) ~engine
      ~flash:(flash_mib 2) ~dram:(dram_mib 4)
  in
  let live = Mgr.capacity_blocks m * 85 / 100 in
  let blocks = Array.init live (fun _ -> Mgr.alloc m) in
  Array.iter (Mgr.load_cold m) blocks;
  Engine.run_until engine (Time.add (Engine.now engine) (Time.span_s 1.0));
  let state = ref 12345 and writes = 4000 in
  let before = Gc.minor_words () in
  for _ = 1 to writes do
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    ignore (Mgr.write_block m blocks.(!state mod live))
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int writes in
  Alcotest.(check bool) "the cleaner ran" true ((Mgr.stats m).Mgr.cleanings > 0);
  check_ceiling "write-through rewrite (512 segments), per write" ~ceiling:5.46 words

(* 50 drains of 64 freshly written blocks each, through one manager or a
   round-robin array of 2 or 4 cards.  A drain issues one group per card,
   so words per flush grow by at most a bounded gap with the card count. *)
let drain_words_per_flush ncards =
  let cycles = 50 and writes_per_cycle = 64 in
  let engine = Engine.create () in
  let cfg = storage_config ~capacity_blocks:1024 ~delay_s:60.0 in
  let flashes = Array.init ncards (fun _ -> flash_mib 4) in
  let dram = dram_mib 8 in
  let store =
    if ncards = 1 then
      Storage.Store.Single (Mgr.create cfg ~engine ~flash:flashes.(0) ~dram)
    else
      Storage.Store.Striped
        (Storage.Array.create
           ~striping:(Storage.Striping.Round_robin { strip_blocks = 4 })
           cfg ~engine ~flashes ~dram)
  in
  let words = ref 0.0 in
  for _ = 1 to cycles do
    for _ = 1 to writes_per_cycle do
      ignore (Storage.Store.write_block store (Storage.Store.alloc store))
    done;
    let before = Gc.minor_words () in
    ignore (Storage.Store.flush_all store);
    words := !words +. (Gc.minor_words () -. before);
    Engine.run_until engine (Time.add (Engine.now engine) (Time.span_s 1.0))
  done;
  !words /. float_of_int cycles

let test_drain_ceiling () =
  let words =
    List.map
      (fun (ncards, ceiling) ->
        let w = drain_words_per_flush ncards in
        check_ceiling (Printf.sprintf "%d-card drain, per flush" ncards) ~ceiling w;
        w)
      [ (1, 579.0); (2, 612.0); (4, 649.0) ]
  in
  let w1 = List.hd words and w4 = List.nth words 2 and gap = 70.0 in
  if w4 -. w1 > gap then
    Alcotest.failf
      "a 4-card drain allocates %.1f words more than a 1-card drain (%.0f vs %.0f); at \
       most %.0f"
      (w4 -. w1) w4 w1 gap

(* One cycle per op on a 2-card array with a 256-block front cache over
   128 resident blocks: a write forgets the block, the next read misses
   and re-inserts it, the read after that hits. *)
let test_front_cache_ceiling () =
  let engine = Engine.create () in
  let a =
    Storage.Array.create ~front_cache_blocks:256
      ~striping:(Storage.Striping.Round_robin { strip_blocks = 4 })
      (storage_config ~capacity_blocks:1024 ~delay_s:60.0)
      ~engine
      ~flashes:(Array.init 2 (fun _ -> flash_mib 4))
      ~dram:(dram_mib 8)
  in
  let nblocks = 128 and ops = 4000 in
  let blocks = Array.init nblocks (fun _ -> Storage.Array.alloc a) in
  Array.iter (Storage.Array.load_cold a) blocks;
  Engine.run_until engine (Time.add (Engine.now engine) (Time.span_s 60.0));
  Array.iter (fun b -> ignore (Storage.Array.read_block a b)) blocks;
  let before = Gc.minor_words () in
  for i = 1 to ops do
    let b = blocks.(i mod nblocks) in
    ignore (Storage.Array.write_block a b);
    ignore (Storage.Array.read_block a b);
    ignore (Storage.Array.read_block a b)
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int ops in
  check_ceiling "front cache forget + insert + hit, per cycle" ~ceiling:0.35 words

(* --- Leaf calls ------------------------------------------------------------ *)

(* Minor words per call of [f i], i = 1 .. 10,000.  Float arguments are
   boxed up front, as a caller holding them in a record passes them. *)
let per_call f =
  let calls = 10_000 in
  let before = Gc.minor_words () in
  for i = 1 to calls do
    f i
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

(* Prints every figure, then fails naming each one over its budget. *)
let check_words budgets =
  let over =
    List.filter_map
      (fun (what, expected, words) ->
        Printf.printf "%s: %.2f minor words per call\n" what words;
        if words > expected then
          Some (Printf.sprintf "%s %.2f (at most %.0f)" what words expected)
        else None)
      budgets
  in
  if over <> [] then Alcotest.failf "minor words per call: %s" (String.concat ", " over)

let test_leaf_calls () =
  let flash = flash_mib 1 in
  let dram = dram_mib 1 in
  let meter = Device.Power.Meter.create ~label:"budget" in
  let summary = Stat.Summary.create () and hist = Stat.Histogram.create () in
  let v = Sys.opaque_identity 123.0 and watts = Sys.opaque_identity 0.25 in
  let now i = Time.of_ns (i * 1000) in
  check_words
  @@ List.map
       (fun (what, f) -> (what, 0.0, per_call f))
       [
      ( "Flash.program with a header",
        fun i ->
          ignore
            (Device.Flash.program flash ~now:(now i) ~sector:(i mod 64) ~bytes:1 ~block:i
               ~version:i ~pos:((i mod 3) - 1)) );
      ("Flash.obsolete", fun i -> Device.Flash.obsolete flash ~sector:(i mod 64));
      ( "Flash.read",
        fun i -> ignore (Device.Flash.read flash ~now:(now i) ~sector:(i mod 64) ~bytes:512) );
      ("Flash.erase", fun i -> ignore (Device.Flash.erase flash ~now:(now i) ~sector:(i mod 64)));
      ("Dram.read", fun _ -> ignore (Device.Dram.read dram ~bytes:512));
      ("Dram.write", fun _ -> ignore (Device.Dram.write dram ~bytes:512));
      ( "Power.Meter.charge_power",
        fun i -> Device.Power.Meter.charge_power meter ~watts (Time.span_ns i) );
      ("Stat.Summary.observe", fun _ -> Stat.Summary.observe summary v);
      ("Stat.Histogram.observe", fun _ -> Stat.Histogram.observe hist v);
    ]

(* The array path's per-block calls, at 0 words each: the front cache's
   lookups, inserts and forgets on hits and misses (a miss into the full
   256-block cache evicts its LRU block), parity routing, block reads
   through a 4-card parity array with that cache in front, and reads
   through a one-card store. *)
let test_block_path_calls () =
  let module BC = Storage.Buffer_cache in
  let n = 256 in
  let fc = BC.create ~probe:"budget.front_cache" ~capacity_blocks:n in
  for key = 0 to n - 1 do
    ignore (BC.insert fc ~key ~dirty:false)
  done;
  (* Keys never seen before: each insert of one misses. *)
  let fresh = ref 1_000_000 in
  let next_fresh () =
    incr fresh;
    !fresh
  in
  let cache =
    [
      ("Buffer_cache.find, hit", fun i -> ignore (BC.find fc ~key:(i mod n)));
      ( "Buffer_cache.insert, hit",
        fun i -> ignore (BC.insert fc ~key:(i mod n) ~dirty:false) );
      ( "Buffer_cache.find_or_insert, hit",
        fun i -> ignore (BC.find_or_insert fc ~key:(i mod n) ~dirty:false) );
      ("Buffer_cache.find, miss", fun i -> ignore (BC.find fc ~key:(n + i)));
      ("Buffer_cache.forget, miss", fun i -> BC.forget fc ~key:(n + i));
      ( "Buffer_cache.insert, miss",
        fun _ -> ignore (BC.insert fc ~key:(next_fresh ()) ~dirty:false) );
      ( "Buffer_cache.find_or_insert, miss",
        fun _ -> ignore (BC.find_or_insert fc ~key:(next_fresh ()) ~dirty:false) );
      ( "Buffer_cache.forget, hit (after an insert)",
        fun _ ->
          let key = next_fresh () in
          ignore (BC.insert fc ~key ~dirty:false);
          BC.forget fc ~key );
    ]
  in
  let parity = Storage.Striping.Parity { strip_blocks = 4; rotate = true } in
  let engine = Engine.create () in
  let cfg = storage_config ~capacity_blocks:1024 ~delay_s:60.0 in
  let a =
    Storage.Array.create ~front_cache_blocks:n ~striping:parity cfg ~engine
      ~flashes:(Array.init 4 (fun _ -> flash_mib 4))
      ~dram:(dram_mib 8)
  in
  let single =
    Storage.Store.Single (Mgr.create cfg ~engine ~flash:(flash_mib 4) ~dram:(dram_mib 8))
  in
  let nblocks = 4 * n in
  let in_array = Array.init nblocks (fun _ -> Storage.Array.alloc a) in
  let in_single = Array.init nblocks (fun _ -> Storage.Store.alloc single) in
  Array.iter (Storage.Array.load_cold a) in_array;
  Array.iter (Storage.Store.load_cold single) in_single;
  Engine.run_until engine (Time.add (Engine.now engine) (Time.span_s 60.0));
  let bytes = Storage.Array.block_bytes a and at = Engine.now engine in
  check_words
  @@ List.map
       (fun (what, f) -> (what, 0.0, per_call f))
       (cache
       @ [
           ( "Striping.parity_card",
             fun i -> ignore (Storage.Striping.parity_card parity ~ncards:4 ~block:i) );
           ( "Array.read_block_at, front-cache hit",
             fun _ -> ignore (Storage.Array.read_block_at ~bytes a ~at in_array.(0)) );
           ( "Array.read_block_at, front-cache miss",
             fun i ->
               ignore (Storage.Array.read_block_at ~bytes a ~at in_array.(i mod nblocks)) );
           ( "Store.read_block_at ~bytes, one card",
             fun i ->
               let b = in_single.(i mod nblocks) in
               ignore (Storage.Store.read_block_at ~bytes single ~at b) );
         ])

(* A 512-block buffer, grown to its working size by one full cycle before
   anything is measured: no operation then allocates, an admit's or a
   refresh's enqueue and compaction included. *)
let test_write_buffer_ops () =
  let module WB = Storage.Write_buffer in
  let n = 512 in
  let b =
    WB.create
      { WB.capacity_blocks = n; writeback_delay = Time.span_s 1.0; refresh_on_rewrite = true }
  in
  let at s = Time.of_ns (s * 1_000_000_000) in
  let admit_all s = for block = 0 to n - 1 do ignore (WB.write b ~now:(at s) ~block) done in
  let expire_all s = for _ = 1 to n do ignore (WB.take_expired_exn b ~now:(at s)) done in
  admit_all 0;
  for s = 1 to 4 do admit_all s done;
  expire_all 10;
  let words f =
    let before = Gc.minor_words () in
    f ();
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let admit = words (fun () -> admit_all 20) in
  let refresh = words (fun () -> for s = 21 to 24 do admit_all s done) /. 4.0 in
  let peek =
    words (fun () ->
        for _ = 1 to n do
          ignore (WB.oldest_exn b);
          ignore (WB.next_deadline_exn b)
        done)
    /. 2.0
  in
  let expire = words (fun () -> expire_all 30) in
  admit_all 40;
  let remove = words (fun () -> for block = 0 to n - 1 do ignore (WB.remove b ~block) done) in
  check_words
    [
      ("Write_buffer admit", 0.0, admit);
      ("Write_buffer refresh", 0.0, refresh);
      ("Write_buffer peek", 0.0, peek);
      ("Write_buffer pop-expired", 0.0, expire);
      ("Write_buffer remove", 0.0, remove);
    ]

(* Four banks of 64 segments with 8-slot segments, every heap grown to its
   bank's size first: then no add, remove, live-count change or pick
   allocates.  Even ids stay free and odd ids closed; each measured call
   takes one out and puts it back, or moves it to the next live count. *)
let test_seg_index_ops () =
  let module I = Storage.Seg_index in
  let nbanks = 4 and per_bank = 64 and nslots = 8 in
  let n = nbanks * per_bank in
  let idx = I.create ~nbanks ~nsegments:n ~nslots in
  let bank id = id / per_bank in
  let live = Array.init n (fun id -> id mod (nslots + 1)) in
  let key id = id mod 5 and erase id = id mod 4 and age id = id * 1_000_000 in
  for id = 0 to n - 1 do
    I.add_free idx ~bank:(bank id) ~key:(key id) ~id
  done;
  for id = 0 to n - 1 do
    I.remove_free idx ~bank:(bank id) ~key:(key id) ~id
  done;
  for l = 0 to nslots do
    for id = 0 to n - 1 do
      I.add_closed idx ~bank:(bank id) ~id ~live:l ~erase:(erase id) ~age:(age id)
    done;
    for id = 0 to n - 1 do
      I.remove_closed idx ~bank:(bank id) ~id ~live:l ~erase:(erase id) ~age:(age id)
    done
  done;
  for id = 0 to n - 1 do
    if id land 1 = 0 then I.add_free idx ~bank:(bank id) ~key:(key id) ~id
    else
      I.add_closed idx ~bank:(bank id) ~id ~live:live.(id) ~erase:(erase id)
        ~age:(age id)
  done;
  let free i = 2 * (i mod (n / 2)) and closed i = (2 * (i mod (n / 2))) + 1 in
  check_words
  @@ List.map
       (fun (what, f) -> (what, 0.0, per_call f))
       [
         ( "Seg_index.remove_free + add_free",
           fun i ->
             let id = free i in
             I.remove_free idx ~bank:(bank id) ~key:(key id) ~id;
             I.add_free idx ~bank:(bank id) ~key:(key id) ~id );
         ( "Seg_index.remove_closed + add_closed",
           fun i ->
             let id = closed i in
             I.remove_closed idx ~bank:(bank id) ~id ~live:live.(id) ~erase:(erase id)
               ~age:(age id);
             I.add_closed idx ~bank:(bank id) ~id ~live:live.(id) ~erase:(erase id)
               ~age:(age id) );
         ( "Seg_index.closed_live_changed",
           fun i ->
             let id = closed i in
             let l = (live.(id) + 1) mod (nslots + 1) in
             I.closed_live_changed idx ~bank:(bank id) ~id ~old_live:live.(id)
               ~new_live:l ~age:(age id);
             live.(id) <- l );
         ("Seg_index.least_worn_free", fun i -> ignore (I.least_worn_free idx ~bank:(i mod 4)));
         ("Seg_index.most_worn_free", fun i -> ignore (I.most_worn_free idx ~bank:(i mod 4)));
         ( "Seg_index.least_live_closed",
           fun i -> ignore (I.least_live_closed idx ~first_bank:(i mod 4) ~end_bank:4) );
         ( "Seg_index.coldest_closed",
           fun i -> ignore (I.coldest_closed idx ~first_bank:(i mod 4) ~end_bank:4) );
         ( "Seg_index.max_score_closed",
           fun i ->
             ignore
               (I.max_score_closed idx ~first_bank:(i mod 4) ~end_bank:4
                  ~now_ns:(i * 1_000_000_000)) );
       ]

(* A block's whole life in the manager's block table, [Manager.alloc]
   then [free_block], once the table has grown: its entries are a state
   and a home sector in two flat arrays, so neither call allocates. *)
let test_block_table_ops () =
  let engine = Engine.create () in
  let m = Mgr.create Mgr.default_config ~engine ~flash:(flash_mib 4) ~dram:(dram_mib 1) in
  (* The first handle grows the table to 1,024 entries; the loop's handles
     fit in it. *)
  Mgr.free_block m (Mgr.alloc m);
  let cycles = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to cycles do
    Mgr.free_block m (Mgr.alloc m)
  done;
  check_words
    [
      ( "Manager.alloc + free_block",
        0.0,
        (Gc.minor_words () -. before) /. float_of_int cycles );
    ]

(* --- Whole machine -------------------------------------------------------- *)

(* Minor words per record replaying a 60 s engineering trace compiled up
   front, on the benchmark's configurations: one 64 MB card, or four 32 MB
   cards in rotating parity with a 256-block front cache and diff logging,
   card 2 pulled a third of the way in and replaced at 25/60. *)
let replay_words_per_record ~parity =
  let seconds = 60.0 in
  let trace =
    Trace.Synth.generate Trace.Workloads.engineering ~rng:(Rng.create ~seed:1)
      ~duration:(Time.span_s seconds)
  in
  let c = Trace.Replay.Compiled.compile trace.Trace.Synth.records in
  let config, faults =
    if not parity then (Ssmc.Config.solid_state ~flash_mb:64 ~dram_mb:8 ~seed:64 (), [])
    else
      ( Ssmc.Config.solid_state ~flash_mb:32 ~dram_mb:8 ~cards:4
          ~striping:(Storage.Striping.Parity { strip_blocks = 4; rotate = true })
          ~front_cache_blocks:256
          ~manager:
            { Mgr.default_config with diff_log = Some Storage.Diff_log.default_config }
          ~seed:64 (),
        [
          {
            Fault.after = Time.span_s (seconds /. 3.0);
            kind = Fault.Card_eject { card = 2; surprise = true };
          };
          {
            Fault.after = Time.span_s (seconds *. 25.0 /. 60.0);
            kind = Fault.Card_reinsert { card = 2 };
          };
        ] )
  in
  let m = Ssmc.Machine.create config in
  Ssmc.Machine.preload m trace.Trace.Synth.initial_files;
  let before = Gc.minor_words () in
  let r =
    Ssmc.Machine.run_compiled ~drain:(Time.span_s 120.0) ~faults:(Fault.schedule faults) m c
  in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every record replayed" c.Trace.Replay.Compiled.n
    r.Ssmc.Machine.ops_applied;
  words /. float_of_int c.Trace.Replay.Compiled.n

let test_replay_ceiling () =
  check_ceiling "engineering replay, one card, per record" ~ceiling:30.0
    (replay_words_per_record ~parity:false)

let test_parity_replay_ceiling () =
  check_ceiling "engineering replay, 4-card parity array, per record" ~ceiling:161.6
    (replay_words_per_record ~parity:true)

(* --- Footprint ------------------------------------------------------------ *)

(* Reachable words of a fresh 64 MB machine and of its flash device, per
   flash sector.  The per-sector tables are most of a machine: the
   device's erase counts, programmed bytes and sector headers (block and
   version; no position array until a delta record is programmed), and
   the manager's block table, each an int array of one word per entry. *)
let test_machine_footprint () =
  let m = Ssmc.Machine.create (Ssmc.Config.solid_state ~flash_mb:64 ()) in
  let flash = Option.get (Ssmc.Machine.flash m) in
  let per_sector v =
    float_of_int (Obj.reachable_words (Obj.repr v))
    /. float_of_int (Device.Flash.nsectors flash)
  in
  let machine = per_sector m and device = per_sector flash in
  Printf.printf "fresh 64 MB machine: %.2f words per flash sector, its Flash.t %.2f\n"
    machine device;
  if machine > 6.5 || device > 4.6 then
    Alcotest.failf
      "words per flash sector: machine %.2f (at most 6.5), Flash.t %.2f (at most 4.6)"
      machine device

let suite =
  [
    Alcotest.test_case "churn words/op: ceiling, flat in card size" `Quick
      test_cleaning_ceiling;
    Alcotest.test_case "write-through rewrite words: ceiling" `Quick test_rewrite_ceiling;
    Alcotest.test_case "drain words/flush: ceiling, flat in cards" `Quick
      test_drain_ceiling;
    Alcotest.test_case "front-cache cycle words: ceiling" `Quick test_front_cache_ceiling;
    Alcotest.test_case "leaf device and stat calls: 0 words" `Quick test_leaf_calls;
    Alcotest.test_case "front cache, parity routing and block reads: 0 words" `Quick
      test_block_path_calls;
    Alcotest.test_case "write buffer: entry per enqueue and the rest: 0 words" `Quick
      test_write_buffer_ops;
    Alcotest.test_case "segment index updates and picks: 0 words" `Quick
      test_seg_index_ops;
    Alcotest.test_case "block alloc + free: 0 words" `Quick test_block_table_ops;
    Alcotest.test_case "one-card replay words/record: ceiling" `Quick test_replay_ceiling;
    Alcotest.test_case "parity-array replay words/record: ceiling" `Quick
      test_parity_replay_ceiling;
    Alcotest.test_case "fresh machine words per flash sector: ceiling" `Quick
      test_machine_footprint;
  ]
