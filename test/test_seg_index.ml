(* Seg_index: the indexed min-heaps that back the storage manager's
   free-segment and victim picks. *)

module I = Storage.Seg_index

let raises_invalid f =
  match f () with () -> false | exception Invalid_argument _ -> true

(* Checks one heap against the model's [(key, id)] entries for it: the
   same members, and every parent before its children in (key, id) order,
   so the root is their minimum. *)
let check_heap idx family ~bank ~what expected =
  let heap = I.heap idx family ~bank in
  if List.sort compare (Array.to_list heap) <> List.sort compare expected then
    QCheck.Test.fail_reportf "%s: wrong members" what;
  Array.iteri
    (fun i node ->
      if i > 0 && compare heap.((i - 1) / 2) node >= 0 then
        QCheck.Test.fail_reportf "%s: parent of %d does not precede it" what i)
    heap

(* The whole index.  Two banks of 64 ids (bank = id / 64) and four-slot
   segments, so live counts run 0..4.  Keys come from small ranges, so
   ties are common, within a bank and across banks. *)
let model_banks = 2
let model_per_bank = 64
let model_ids = model_banks * model_per_bank
let model_nslots = 4

type entry = Absent | Free of int | Closed of { live : int; erase : int; age : int }

let bank_ranges = [ (0, 1); (1, 2); (0, 2); (1, 1) ]

(* Model-based check: random adds, removes and live-count changes, with
   misuse mixed in, against an array of entries.  [bias] sets the share
   of adds that go to the free side (10%, 50% or 90%), so some runs grow
   a bank's free heaps, others its closed heaps, past 32 ids.  After
   every op, every heap of every family holds exactly the model's entries
   in heap order; the least- and most-worn free picks match the model in
   each bank; over each bank range, [coldest_closed] is the least
   (erase, id) and [least_live_closed] the least (age, id) of the lowest
   live count's lowest bank (the greedy victim when every age is 0); and
   misuse raises and changes nothing. *)
let prop_index_matches_model =
  QCheck.Test.make ~name:"seg_index: whole index matches naive model" ~count:50
    QCheck.(
      pair (int_bound 2)
        (list_of_size (Gen.int_range 100 600)
           (quad (int_bound 9) (int_bound (model_ids - 1)) (int_bound 7) (int_bound 7))))
    (fun (bias, ops) ->
      let idx = I.create ~nbanks:model_banks ~nsegments:model_ids ~nslots:model_nslots in
      let model = Array.make model_ids Absent in
      let bank id = id / model_per_bank in
      (* The least [(key, id)] over the ids [f] maps to [Some key]: -1 if none. *)
      let least f =
        let best = ref None in
        Array.iteri
          (fun id e ->
            match f id e with
            | Some k when (match !best with None -> true | Some b -> (k, id) < b) ->
              best := Some (k, id)
            | Some _ | None -> ())
          model;
        Option.fold ~none:(-1) ~some:snd !best
      in
      let check () =
        let nfree = ref 0 in
        Array.iter (function Free _ -> incr nfree | Absent | Closed _ -> ()) model;
        if I.free_count idx <> !nfree then
          QCheck.Test.fail_reportf "free_count %d, model %d" (I.free_count idx) !nfree;
        let entries f =
          List.filter_map Fun.id (List.init model_ids (fun id -> f id model.(id)))
        in
        for b = 0 to model_banks - 1 do
          let free_key neg id = function
            | Free k when bank id = b -> Some (if neg then -k else k)
            | Free _ | Absent | Closed _ -> None
          in
          let expect what got f =
            let want = least f in
            if got <> want then
              QCheck.Test.fail_reportf "bank %d %s: index %d, model %d" b what got want
          in
          expect "least worn" (I.least_worn_free idx ~bank:b) (free_key false);
          expect "most worn" (I.most_worn_free idx ~bank:b) (free_key true);
          let pair f id e = Option.map (fun k -> (k, id)) (f id e) in
          check_heap idx I.Least_worn ~bank:b ~what:"least-worn heap"
            (entries (pair (free_key false)));
          check_heap idx I.Most_worn ~bank:b ~what:"most-worn heap"
            (entries (pair (free_key true)));
          check_heap idx I.By_erase ~bank:b ~what:"erase heap"
            (entries (fun id -> function
               | Closed c when bank id = b -> Some (c.erase, id)
               | Closed _ | Absent | Free _ -> None));
          for live = 0 to model_nslots do
            check_heap idx (I.By_age live) ~bank:b
              ~what:(Printf.sprintf "age heap, live %d" live)
              (entries (fun id -> function
                 | Closed c when bank id = b && c.live = live -> Some (c.age, id)
                 | Closed _ | Absent | Free _ -> None))
          done
        done;
        List.iter
          (fun (first_bank, end_bank) ->
            let in_range id = bank id >= first_bank && bank id < end_bank in
            let expect what got want =
              if got <> want then
                QCheck.Test.fail_reportf "banks %d..%d %s: index %d, model %d" first_bank
                  (end_bank - 1) what got want
            in
            expect "coldest closed"
              (I.coldest_closed idx ~first_bank ~end_bank)
              (least (fun id -> function
                 | Closed c when in_range id -> Some c.erase
                 | Closed _ | Absent | Free _ -> None));
            (* The first non-empty heap, by live count then bank. *)
            let first_heap = ref (max_int, max_int) in
            Array.iteri
              (fun id -> function
                | Closed c when in_range id ->
                  first_heap := min !first_heap (c.live, bank id)
                | Closed _ | Absent | Free _ -> ())
              model;
            expect "least live closed"
              (I.least_live_closed idx ~first_bank ~end_bank)
              (least (fun id -> function
                 | Closed c when (c.live, bank id) = !first_heap -> Some c.age
                 | Closed _ | Absent | Free _ -> None)))
          bank_ranges
      in
      let must_raise what f =
        if not (raises_invalid f) then QCheck.Test.fail_reportf "%s accepted" what
      in
      List.iter
        (fun (kind, id, x, y) ->
          let b = bank id in
          (match (kind, model.(id)) with
          | (0 | 1 | 2 | 3 | 4), Absent ->
            if (x + (8 * y)) mod 10 < [| 1; 5; 9 |].(bias) then begin
              let key = x mod 6 in
              I.add_free idx ~bank:b ~key ~id;
              model.(id) <- Free key
            end
            else begin
              let live = x mod (model_nslots + 1) and erase = y mod 6 in
              let age = (x + y) mod 3 in
              I.add_closed idx ~bank:b ~id ~live ~erase ~age;
              model.(id) <- Closed { live; erase; age }
            end
          | (0 | 1 | 2 | 3 | 4), Free key ->
            must_raise "double free add" (fun () -> I.add_free idx ~bank:b ~key ~id)
          | (0 | 1 | 2 | 3 | 4), Closed c ->
            must_raise "double closed add" (fun () ->
                I.add_closed idx ~bank:b ~id ~live:c.live ~erase:c.erase ~age:c.age)
          | (5 | 6), Free key ->
            I.remove_free idx ~bank:b ~key ~id;
            model.(id) <- Absent
          | (5 | 6), Closed c ->
            I.remove_closed idx ~bank:b ~id ~live:c.live ~erase:c.erase ~age:c.age;
            model.(id) <- Absent
          | (5 | 6 | 7), Absent ->
            must_raise "free remove of an absent id" (fun () ->
                I.remove_free idx ~bank:b ~key:x ~id);
            must_raise "closed remove of an absent id" (fun () ->
                I.remove_closed idx ~bank:b ~id ~live:0 ~erase:x ~age:y)
          | 7, Closed c ->
            let live = x mod (model_nslots + 1) in
            I.closed_live_changed idx ~bank:b ~id ~old_live:c.live ~new_live:live
              ~age:c.age;
            model.(id) <- Closed { c with live }
          | 7, Free _ ->
            must_raise "live change of a free id" (fun () ->
                I.closed_live_changed idx ~bank:b ~id ~old_live:0 ~new_live:1 ~age:0)
          | _, Free key ->
            must_raise "free remove under a wrong key" (fun () ->
                I.remove_free idx ~bank:b ~key:(key + 1) ~id)
          | _, Closed c ->
            let remove ~live ~erase ~age () =
              I.remove_closed idx ~bank:b ~id ~live ~erase ~age
            in
            must_raise "remove under a wrong live count"
              (remove ~live:((c.live + 1) mod (model_nslots + 1)) ~erase:c.erase ~age:c.age);
            must_raise "remove under a wrong erase count"
              (remove ~live:c.live ~erase:(c.erase + 1) ~age:c.age);
            must_raise "remove under a wrong age key"
              (remove ~live:c.live ~erase:c.erase ~age:(c.age + 1))
          | _, Absent -> ());
          check ())
        ops;
      true)

(* The cost-benefit heaps.  Two banks of six ids (bank = id / 6) and
   four-slot segments, so live counts run 0..4. *)
let heap_banks = 2
let heap_ids = 12
let heap_nslots = 4

let aged_index () = I.create ~nbanks:heap_banks ~nsegments:heap_ids ~nslots:heap_nslots

(* The reference score ([Scan_oracle.score]) of a segment with [live] of
   its [heap_nslots] blocks live, last touched at [lt] ns. *)
let oracle_score ~now ~live ~lt =
  let seg = Storage.Segment.create ~id:0 ~first_sector:0 ~nslots:heap_nslots in
  Storage.Segment.open_ seg;
  for b = 0 to heap_nslots - 1 do
    ignore (Storage.Segment.append seg ~block:b)
  done;
  for slot = 0 to heap_nslots - live - 1 do
    Storage.Segment.kill seg ~slot
  done;
  Storage.Segment.touch seg ~at:(Sim.Time.of_ns lt);
  Scan_oracle.score Storage.Cleaner.Cost_benefit ~now:(Sim.Time.of_ns now) seg

(* Instants whose scores tie by rounding.  Near 2^57 ns an age of about
   1.4e8 s has a float step of about 30 ns, so last-touched instants a
   few ns apart score alike; at [2^57 - 280] the live-1 scores tie over
   0..48 ns, a span that [(age +. 1.0) *. ((1.0 -. u) /. (1.0 +. u))]
   splits in two.  At 0 every age is 0, so a live count's scores all
   tie; at 60 only equal instants do. *)
let near_2_57 = 1 lsl 57
let tie_nows = [ near_2_57 - 280; near_2_57 - 100; (1 lsl 56) + 3; 60; 0 ]

(* Model-based check: random adds, removes and live-count changes against
   a list of (id, live, lt) entries.  After every op each (bank, live)
   heap holds exactly the model's entries, its root is their minimum
   (lt, id), every parent precedes its children, and the pick agrees with
   a scan of the model scored by the oracle, over each bank range at
   each of [tie_nows]; misuse raises and changes nothing. *)
let prop_heaps_match_model =
  QCheck.Test.make ~name:"seg_index: age heaps match naive model" ~count:300
    QCheck.(
      list
        (quad (int_bound 3) (int_bound (heap_ids - 1)) (int_bound heap_nslots)
           (int_bound 15)))
    (fun ops ->
      let idx = aged_index () in
      let model = ref [] in
      let find id = List.find_opt (fun (i, _, _) -> i = id) !model in
      let bank id = id / 6 in
      let check_heaps () =
        for b = 0 to heap_banks - 1 do
          for live = 0 to heap_nslots do
            check_heap idx (I.By_age live) ~bank:b
              ~what:(Printf.sprintf "bank %d live %d" b live)
              (List.filter_map
                 (fun (id, l, lt) ->
                   if bank id = b && l = live then Some (lt, id) else None)
                 !model)
          done
        done
      in
      let check_pick ~now (first_bank, end_bank) =
        let scan =
          List.fold_left
            (fun best (id, live, lt) ->
              if bank id < first_bank || bank id >= end_bank then best
              else
                let s = oracle_score ~now ~live ~lt in
                match best with
                | Some (bid, bs) when bs > s || (bs = s && bid < id) -> best
                | Some _ | None -> Some (id, s))
            None !model
          |> Option.fold ~none:(-1) ~some:fst
        in
        let pick = I.max_score_closed idx ~first_bank ~end_bank ~now_ns:now in
        if pick <> scan then
          QCheck.Test.fail_reportf "pick %d, the scan %d (now %d, banks %d..%d)" pick scan
            now first_bank (end_bank - 1)
      in
      List.iter
        (fun (kind, id, live, t) ->
          let lt = 4 * t in
          (match (kind, find id) with
          | 0, None ->
            I.add_closed idx ~bank:(bank id) ~id ~live ~erase:0 ~age:lt;
            model := (id, live, lt) :: !model
          | 0, Some (_, l, x) ->
            if
              not
                (raises_invalid (fun () ->
                     I.add_closed idx ~bank:(bank id) ~id ~live:l ~erase:0 ~age:x))
            then QCheck.Test.fail_reportf "double add of %d accepted" id
          | 1, Some (_, l, x) ->
            I.remove_closed idx ~bank:(bank id) ~id ~live:l ~erase:0 ~age:x;
            model := List.filter (fun (i, _, _) -> i <> id) !model
          | (1 | 2 | 3), None ->
            if
              not
                (raises_invalid (fun () ->
                     I.remove_closed idx ~bank:(bank id) ~id ~live ~erase:0 ~age:lt))
            then QCheck.Test.fail_reportf "remove of absent %d accepted" id
          | 2, Some (_, l, x) ->
            I.closed_live_changed idx ~bank:(bank id) ~id ~old_live:l ~new_live:live
              ~age:x;
            model := (id, live, x) :: List.filter (fun (i, _, _) -> i <> id) !model
          | _, Some (_, l, x) ->
            (* A wrong live count or last-touched instant. *)
            let wrong_live = (l + 1) mod (heap_nslots + 1) in
            if
              not
                (raises_invalid (fun () ->
                     I.remove_closed idx ~bank:(bank id) ~id ~live:wrong_live ~erase:0
                       ~age:x)
                && raises_invalid (fun () ->
                       I.remove_closed idx ~bank:(bank id) ~id ~live:l ~erase:0
                         ~age:(x + 1)))
            then QCheck.Test.fail_reportf "remove of %d under wrong keys accepted" id
          | _, None -> ());
          check_heaps ();
          List.iter
            (fun now -> List.iter (check_pick ~now) [ (0, 1); (1, 2); (0, 2); (1, 1) ])
            tie_nows)
        ops;
      true)

let test_heap_misuse_raises () =
  let idx = aged_index () in
  I.add_closed idx ~bank:0 ~id:3 ~live:2 ~erase:0 ~age:100;
  let raises what f = Alcotest.(check bool) what true (raises_invalid f) in
  raises "double add" (fun () ->
      I.add_closed idx ~bank:0 ~id:3 ~live:2 ~erase:0 ~age:100);
  raises "double add under other keys" (fun () ->
      I.add_closed idx ~bank:0 ~id:3 ~live:1 ~erase:0 ~age:50);
  raises "remove with the wrong live count" (fun () ->
      I.remove_closed idx ~bank:0 ~id:3 ~live:1 ~erase:0 ~age:100);
  raises "remove with the wrong lt" (fun () ->
      I.remove_closed idx ~bank:0 ~id:3 ~live:2 ~erase:0 ~age:99);
  raises "live change from the wrong count" (fun () ->
      I.closed_live_changed idx ~bank:0 ~id:3 ~old_live:3 ~new_live:2 ~age:100);
  raises "live count beyond nslots" (fun () ->
      I.add_closed idx ~bank:0 ~id:4 ~live:(heap_nslots + 1) ~erase:0 ~age:0);
  raises "remove of an absent id" (fun () ->
      I.remove_closed idx ~bank:0 ~id:5 ~live:2 ~erase:0 ~age:100);
  (* None of that disturbed the entry. *)
  Alcotest.(check (array (pair int int)))
    "entry intact" [| (100, 3) |]
    (I.heap idx (I.By_age 2) ~bank:0);
  I.remove_closed idx ~bank:0 ~id:3 ~live:2 ~erase:0 ~age:100;
  Alcotest.(check (array (pair int int)))
    "removed" [||]
    (I.heap idx (I.By_age 2) ~bank:0)

(* Ties the root alone gets wrong, from the production score.  Bank 0:
   full segments all score 0, so the lowest id wins however young it is.
   Bank 1: at [2^57 - 280] ns, live-1 segments last touched at 14 and
   18 ns score alike, so the younger, lower id wins; one touched at 50 ns
   scores lower. *)
let test_pick_walks_ties () =
  let idx = aged_index () in
  let full = heap_nslots in
  let entries =
    [ (4, full, 10); (5, full, 20); (1, full, 30); (2, full, 40); (0, full, 90) ]
    @ [ (9, 1, 14); (7, 1, 18); (6, 1, 50) ]
  in
  List.iter
    (fun (id, live, lt) -> I.add_closed idx ~bank:(id / 6) ~id ~live ~erase:0 ~age:lt)
    entries;
  let now = near_2_57 - 280 in
  let score id =
    let _, live, lt = List.find (fun (i, _, _) -> i = id) entries in
    oracle_score ~now ~live ~lt
  in
  Alcotest.(check bool) "14 and 18 ns tie" true (score 9 = score 7);
  Alcotest.(check bool) "50 ns scores lower" true (score 6 < score 7);
  let pick first_bank end_bank = I.max_score_closed idx ~first_bank ~end_bank ~now_ns:now in
  Alcotest.(check int) "full: the youngest, lowest id" 0 (pick 0 1);
  Alcotest.(check int) "equal floats: the lower id" 7 (pick 1 2);
  Alcotest.(check int) "both banks: any positive score beats full" 7 (pick 0 2);
  Alcotest.(check int) "no bank: none" (-1) (pick 1 1)

let test_free_side_counters () =
  let idx = I.create ~nbanks:2 ~nsegments:16 ~nslots:8 in
  Alcotest.(check int) "empty bank: none" (-1) (I.least_worn_free idx ~bank:0);
  I.add_free idx ~bank:0 ~key:3 ~id:0;
  I.add_free idx ~bank:0 ~key:3 ~id:1;
  I.add_free idx ~bank:1 ~key:1 ~id:8;
  Alcotest.(check int) "total" 3 (I.free_count idx);
  Alcotest.(check int) "least worn, tie to low id" 0 (I.least_worn_free idx ~bank:0);
  Alcotest.(check int) "most worn, tie to low id" 0 (I.most_worn_free idx ~bank:0);
  I.remove_free idx ~bank:0 ~key:3 ~id:0;
  Alcotest.(check int) "total after remove" 2 (I.free_count idx);
  Alcotest.(check int) "survivor" 1 (I.least_worn_free idx ~bank:0);
  Alcotest.(check int) "other bank untouched" 8 (I.most_worn_free idx ~bank:1)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_index_matches_model;
    QCheck_alcotest.to_alcotest prop_heaps_match_model;
    Alcotest.test_case "heap misuse raises" `Quick test_heap_misuse_raises;
    Alcotest.test_case "cost-benefit pick walks ties" `Quick test_pick_walks_ties;
    Alcotest.test_case "free side counters" `Quick test_free_side_counters;
  ]
