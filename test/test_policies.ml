(* Cleaner victim selection and wear leveling (the reference scans in
   [Scan_oracle]), and bank-partitioning policies. *)
open Sim

let segment ~id ~fill ~kill ~touched =
  let s = Storage.Segment.create ~id ~first_sector:(id * 8) ~nslots:8 in
  Storage.Segment.open_ s;
  for b = 0 to fill - 1 do
    ignore (Storage.Segment.append s ~block:(100 * id + b))
  done;
  if fill < 8 then Storage.Segment.close s;
  List.iter (fun slot -> Storage.Segment.kill s ~slot) kill;
  Storage.Segment.touch s ~at:(Time.of_ns touched);
  s

(* --- Cleaner ----------------------------------------------------------------- *)

let test_greedy_picks_emptiest () =
  let a = segment ~id:0 ~fill:8 ~kill:[ 0 ] ~touched:0 in
  let b = segment ~id:1 ~fill:8 ~kill:[ 0; 1; 2; 3; 4 ] ~touched:0 in
  let c = segment ~id:2 ~fill:8 ~kill:[ 0; 1 ] ~touched:0 in
  let victim =
    Scan_oracle.select Storage.Cleaner.Greedy ~now:(Time.of_ns 100)
      ~eligible:(fun _ -> true)
      [| a; b; c |]
  in
  Alcotest.(check int) "emptiest chosen" 1 (Storage.Segment.id (Option.get victim))

let test_cost_benefit_prefers_old_segments () =
  (* Same utilization; the older segment must win. *)
  let young = segment ~id:0 ~fill:8 ~kill:[ 0; 1 ] ~touched:1_000_000_000 in
  let old = segment ~id:1 ~fill:8 ~kill:[ 0; 1 ] ~touched:0 in
  let victim =
    Scan_oracle.select Storage.Cleaner.Cost_benefit ~now:(Time.of_ns 2_000_000_000)
      ~eligible:(fun _ -> true)
      [| young; old |]
  in
  Alcotest.(check int) "older wins" 1 (Storage.Segment.id (Option.get victim))

let test_cost_benefit_cleans_fuller_old_over_emptier_young () =
  (* The LFS insight: an old segment at higher utilization can still be the
     better victim than a just-written emptier one. *)
  let young_empty = segment ~id:0 ~fill:8 ~kill:[ 0; 1; 2; 3 ] ~touched:999_000_000_000 in
  let old_fuller = segment ~id:1 ~fill:8 ~kill:[ 0; 1 ] ~touched:0 in
  let now = Time.of_ns 1_000_000_000_000 in
  let cb = Storage.Cleaner.Cost_benefit in
  Alcotest.(check bool) "old fuller scores higher" true
    (Scan_oracle.score cb ~now old_fuller
    > Scan_oracle.score cb ~now young_empty)

let test_select_respects_eligibility_and_state () =
  let open_seg = segment ~id:0 ~fill:4 ~kill:[ 0; 1; 2; 3 ] ~touched:0 in
  (* fill < 8 closes it; reopen a fresh one to have an Open segment. *)
  let fresh = Storage.Segment.create ~id:1 ~first_sector:64 ~nslots:8 in
  Storage.Segment.open_ fresh;
  let victim =
    Scan_oracle.select Storage.Cleaner.Greedy ~now:Time.zero
      ~eligible:(fun s -> Storage.Segment.id s <> 0)
      [| open_seg; fresh |]
  in
  Alcotest.(check bool) "nothing eligible" true (victim = None)

let test_write_amplification () =
  Alcotest.(check (float 1e-9)) "no cleaning" 1.0
    (Storage.Cleaner.write_amplification ~blocks_written:100 ~blocks_flushed:100);
  Alcotest.(check (float 1e-9)) "50% overhead" 1.5
    (Storage.Cleaner.write_amplification ~blocks_written:150 ~blocks_flushed:100);
  Alcotest.(check (float 1e-9)) "empty run" 1.0
    (Storage.Cleaner.write_amplification ~blocks_written:0 ~blocks_flushed:0)

(* --- Wear ---------------------------------------------------------------------- *)

let free_segment ~id = Storage.Segment.create ~id ~first_sector:(id * 8) ~nslots:8

let test_pick_free_policies () =
  let a = free_segment ~id:0 and b = free_segment ~id:1 and c = free_segment ~id:2 in
  let counts = [| 5; 1; 3 |] in
  let erase_count s = counts.(Storage.Segment.id s) in
  (match Scan_oracle.pick_free Storage.Wear.None_ ~erase_count [| a; b; c |] with
  | Some s -> Alcotest.(check int) "first-fit ignores wear" 0 (Storage.Segment.id s)
  | None -> Alcotest.fail "no pick");
  match Scan_oracle.pick_free Storage.Wear.Dynamic ~erase_count [| a; b; c |] with
  | Some s -> Alcotest.(check int) "dynamic picks least worn" 1 (Storage.Segment.id s)
  | None -> Alcotest.fail "no pick"

let test_pick_free_skips_non_free () =
  let used = segment ~id:0 ~fill:8 ~kill:[] ~touched:0 in
  let free = free_segment ~id:1 in
  match Scan_oracle.pick_free Storage.Wear.Dynamic ~erase_count:(fun _ -> 0) [| used; free |] with
  | Some s -> Alcotest.(check int) "only free considered" 1 (Storage.Segment.id s)
  | None -> Alcotest.fail "no pick"

let test_evenness () =
  let segs = Array.init 4 (fun id -> free_segment ~id) in
  let counts = [| 0; 10; 5; 5 |] in
  let e = Scan_oracle.evenness ~erase_count:(fun s -> counts.(Storage.Segment.id s)) segs in
  Alcotest.(check int) "min" 0 e.Storage.Wear.min_erases;
  Alcotest.(check int) "max" 10 e.Storage.Wear.max_erases;
  Alcotest.(check (float 1e-9)) "mean" 5.0 e.Storage.Wear.mean_erases;
  Alcotest.(check bool) "the manager's scan agrees" true (Storage.Wear.evenness counts = e)

let test_relocation_trigger () =
  let closed = segment ~id:0 ~fill:8 ~kill:[] ~touched:0 in
  let other = segment ~id:1 ~fill:8 ~kill:[] ~touched:0 in
  (* max - mean = 15 > threshold 10. *)
  let counts = [| 0; 30 |] in
  let erase_count s = counts.(Storage.Segment.id s) in
  let policy = Storage.Wear.Static { spread_threshold = 10 } in
  (match
     Scan_oracle.relocation_victim policy ~erase_count ~eligible:(fun _ -> true)
       [| closed; other |]
   with
  | Some s -> Alcotest.(check int) "coldest segment relocated" 0 (Storage.Segment.id s)
  | None -> Alcotest.fail "should trigger");
  (* Below the threshold: no relocation. *)
  counts.(1) <- 5;
  Alcotest.(check bool) "no trigger below threshold" true
    (Scan_oracle.relocation_victim policy ~erase_count ~eligible:(fun _ -> true)
       [| closed; other |]
    = None);
  (* Dynamic never relocates. *)
  counts.(1) <- 100;
  Alcotest.(check bool) "dynamic never relocates" true
    (Scan_oracle.relocation_victim Storage.Wear.Dynamic ~erase_count
       ~eligible:(fun _ -> true) [| closed; other |]
    = None)

(* --- Tie-breaking ------------------------------------------------------------

   Both decision implementations (the reference scans here, the Seg_index
   fast path through the manager) must prefer the lowest segment id on
   ties; the differential tests rely on this being pinned down. *)

let test_pick_free_tie_lowest_id () =
  let segs = Array.init 4 (fun id -> free_segment ~id) in
  let erase_count _ = 7 in
  let check name policy ~for_cold =
    match Scan_oracle.pick_free ~for_cold policy ~erase_count segs with
    | Some s -> Alcotest.(check int) name 0 (Storage.Segment.id s)
    | None -> Alcotest.fail "no pick"
  in
  check "first-fit tie" Storage.Wear.None_ ~for_cold:false;
  check "dynamic tie" Storage.Wear.Dynamic ~for_cold:false;
  let static = Storage.Wear.Static { spread_threshold = 5 } in
  check "static hot tie" static ~for_cold:false;
  check "static cold tie" static ~for_cold:true

let test_cleaner_select_tie_lowest_id () =
  (* Identical utilization and age everywhere: the fold must keep its
     first (lowest-id) maximum under both policies. *)
  let segs =
    Array.init 4 (fun id -> segment ~id ~fill:8 ~kill:[ 0; 1 ] ~touched:1_000)
  in
  let now = Time.of_ns 500_000_000 in
  List.iter
    (fun (name, policy) ->
      match Scan_oracle.select policy ~now ~eligible:(fun _ -> true) segs with
      | Some s -> Alcotest.(check int) name 0 (Storage.Segment.id s)
      | None -> Alcotest.fail "no victim")
    [ ("greedy tie", Storage.Cleaner.Greedy);
      ("cost-benefit tie", Storage.Cleaner.Cost_benefit) ]

let test_relocation_victim_tie_lowest_id () =
  let segs = Array.init 3 (fun id -> segment ~id ~fill:8 ~kill:[] ~touched:0) in
  (* Equal wear on the closed segments, a spread-busting outlier via a
     fourth: make ids 0..2 all erase-count 0 and force the trigger with a
     high max elsewhere. *)
  let outlier = free_segment ~id:3 in
  let all = Array.append segs [| outlier |] in
  let erase_count s = if Storage.Segment.id s = 3 then 40 else 0 in
  match
    Scan_oracle.relocation_victim
      (Storage.Wear.Static { spread_threshold = 10 })
      ~erase_count ~eligible:(fun _ -> true) all
  with
  | Some s -> Alcotest.(check int) "lowest id relocated" 0 (Storage.Segment.id s)
  | None -> Alcotest.fail "should trigger"

(* --- Banks ----------------------------------------------------------------------- *)

let test_banks_validate () =
  Alcotest.(check bool) "unified ok" true
    (Storage.Banks.validate Storage.Banks.Unified ~nbanks:1 = Ok ());
  Alcotest.(check bool) "partitioned ok" true
    (Storage.Banks.validate (Storage.Banks.Partitioned { write_banks = 1 }) ~nbanks:4
    = Ok ());
  Alcotest.(check bool) "must leave a read bank" true
    (Result.is_error
       (Storage.Banks.validate (Storage.Banks.Partitioned { write_banks = 4 }) ~nbanks:4));
  Alcotest.(check bool) "needs a write bank" true
    (Result.is_error
       (Storage.Banks.validate (Storage.Banks.Partitioned { write_banks = 0 }) ~nbanks:4))

let test_banks_allowed () =
  let p = Storage.Banks.Partitioned { write_banks = 2 } in
  Alcotest.(check bool) "fresh in write bank" true
    (Storage.Banks.allowed p ~nbanks:4 Storage.Banks.Fresh_write ~bank:1);
  Alcotest.(check bool) "fresh not in read bank" false
    (Storage.Banks.allowed p ~nbanks:4 Storage.Banks.Fresh_write ~bank:2);
  Alcotest.(check bool) "cold in read bank" true
    (Storage.Banks.allowed p ~nbanks:4 Storage.Banks.Cold_load ~bank:3);
  Alcotest.(check bool) "cold not in write bank" false
    (Storage.Banks.allowed p ~nbanks:4 Storage.Banks.Cold_load ~bank:0);
  Alcotest.(check bool) "cleaning output to read banks" true
    (Storage.Banks.allowed p ~nbanks:4 Storage.Banks.Clean_out ~bank:2);
  Alcotest.(check bool) "unified allows all" true
    (Storage.Banks.allowed Storage.Banks.Unified ~nbanks:4 Storage.Banks.Fresh_write
       ~bank:3);
  let range policy purpose =
    (Storage.Banks.first_bank policy purpose, Storage.Banks.end_bank policy ~nbanks:4 purpose)
  in
  Alcotest.(check (pair int int)) "fresh writes: banks 0..1" (0, 2)
    (range p Storage.Banks.Fresh_write);
  Alcotest.(check (pair int int)) "cleaning output: banks 2..3" (2, 4)
    (range p Storage.Banks.Clean_out);
  Alcotest.(check (pair int int)) "cold loads: banks 2..3" (2, 4)
    (range p Storage.Banks.Cold_load);
  Alcotest.(check (pair int int)) "unified: banks 0..3" (0, 4)
    (range Storage.Banks.Unified Storage.Banks.Cold_load);
  Alcotest.check_raises "bank range" (Invalid_argument "Banks.allowed: bank out of range")
    (fun () -> ignore (Storage.Banks.allowed p ~nbanks:4 Storage.Banks.Fresh_write ~bank:4))

let suite =
  [
    Alcotest.test_case "greedy picks emptiest" `Quick test_greedy_picks_emptiest;
    Alcotest.test_case "cost-benefit prefers old" `Quick test_cost_benefit_prefers_old_segments;
    Alcotest.test_case "cost-benefit LFS insight" `Quick
      test_cost_benefit_cleans_fuller_old_over_emptier_young;
    Alcotest.test_case "eligibility respected" `Quick test_select_respects_eligibility_and_state;
    Alcotest.test_case "write amplification" `Quick test_write_amplification;
    Alcotest.test_case "pick_free policies" `Quick test_pick_free_policies;
    Alcotest.test_case "pick_free skips used" `Quick test_pick_free_skips_non_free;
    Alcotest.test_case "evenness" `Quick test_evenness;
    Alcotest.test_case "relocation trigger" `Quick test_relocation_trigger;
    Alcotest.test_case "pick_free tie -> lowest id" `Quick test_pick_free_tie_lowest_id;
    Alcotest.test_case "select tie -> lowest id" `Quick test_cleaner_select_tie_lowest_id;
    Alcotest.test_case "relocation tie -> lowest id" `Quick
      test_relocation_victim_tie_lowest_id;
    Alcotest.test_case "banks validate" `Quick test_banks_validate;
    Alcotest.test_case "banks allowed" `Quick test_banks_allowed;
  ]
