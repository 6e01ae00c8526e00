(* Allocation ceilings.  Minor-heap words per operation are deterministic
   for a build, so a level reached is held by a test: a change that
   allocates more on a hot path fails here, not only on the benchmark.

   The cleaning ceiling runs a churn-shaped storage-manager workload —
   4 banks filled to 85% with cold data, then 1 s rounds of 96 Zipf(1.0)
   rewrites and 32 uniform reads (three writes then a read) — at two card
   sizes.  Cost-benefit victim selection must cost the same per pick
   however many segments the card holds, so the larger card may not
   allocate much more per op than the smaller. *)

open Sim
module Mgr = Storage.Manager

let rounds = 1000
let writes_per_round = 96
let reads_per_round = 32

(* Minor words per client op over [rounds] rounds on a [mib] MB card,
   setup and the op stream's generation excluded. *)
let churn_words_per_op ~mib =
  let engine = Engine.create () in
  let flash =
    Device.Flash.create (Device.Flash.config ~nbanks:4 ~size_bytes:(mib * Units.mib) ())
  in
  let dram = Device.Dram.create ~size_bytes:(2 * Units.mib) ~battery_backed:true () in
  let m = Mgr.create Mgr.default_config ~engine ~flash ~dram in
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

let suite =
  [
    Alcotest.test_case "churn words/op: ceiling, flat in card size" `Quick
      test_cleaning_ceiling;
  ]
