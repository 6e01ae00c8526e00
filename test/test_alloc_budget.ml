(* Allocation ceilings.  Minor-heap words per operation are deterministic
   for a build, so a level reached is held by a test: a change that
   allocates more on a hot path fails here, not only on the benchmark.

   The cleaning ceiling runs a churn-shaped storage-manager workload —
   4 banks filled to 85% with cold data, then 1 s rounds of 96 Zipf(1.0)
   rewrites and 32 uniform reads (three writes then a read) — at two card
   sizes.  Cost-benefit victim selection must cost the same per pick
   however many segments the card holds, so the larger card may not
   allocate much more per op than the smaller.

   The storage ceilings hold the manager's other hot paths with probes
   off: write-through rewrites, an array's writeback drain at 1, 2 and 4
   cards, and the array front cache's forget/insert/hit cycle.  Each
   ceiling is 1.15x the figure measured when it was set. *)

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
   setup and the op stream's generation excluded. *)
let churn_words_per_op ~mib =
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
  words /. float_of_int (rounds * (writes_per_round + reads_per_round))

let test_cleaning_ceiling () =
  let small = churn_words_per_op ~mib:8 and large = churn_words_per_op ~mib:32 in
  let ceiling = 150.0 and growth = 1.15 in
  Printf.printf "minor words/op: %.1f (8 MB), %.1f (32 MB)\n" small large;
  if small > ceiling || large > ceiling then
    Alcotest.failf "%.1f (8 MB) and %.1f (32 MB) minor words/op; the ceiling is %.0f"
      small large ceiling;
  if large > growth *. small then
    Alcotest.failf "32 MB allocates %.2fx the 8 MB words/op (%.1f vs %.1f); at most %.2fx"
      (large /. small) large small growth

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
  Printf.printf "%s: %.0f minor words\n" what words;
  if words > ceiling then
    Alcotest.failf "%s: %.0f minor words; the ceiling is %.0f" what words ceiling

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
  check_ceiling "write-through rewrite (512 segments), per write" ~ceiling:281.0 words

(* 50 drains of 64 freshly written blocks each, through one manager or a
   round-robin array of 2 or 4 cards.  A drain issues one group per card,
   so words per flush stay flat in the card count. *)
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
      [ (1, 4444.0); (2, 4490.0); (4, 4539.0) ]
  in
  let w1 = List.hd words and w4 = List.nth words 2 in
  if w4 > 1.10 *. w1 then
    Alcotest.failf
      "a 4-card drain allocates %.2fx a 1-card drain (%.0f vs %.0f); at most 1.10x"
      (w4 /. w1) w4 w1

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
  check_ceiling "front cache forget + insert + hit, per cycle" ~ceiling:83.0 words

let suite =
  [
    Alcotest.test_case "churn words/op: ceiling, flat in card size" `Quick
      test_cleaning_ceiling;
    Alcotest.test_case "write-through rewrite words: ceiling" `Quick test_rewrite_ceiling;
    Alcotest.test_case "drain words/flush: ceiling, flat in cards" `Quick
      test_drain_ceiling;
    Alcotest.test_case "front-cache cycle words: ceiling" `Quick test_front_cache_ceiling;
  ]
