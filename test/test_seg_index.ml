(* Seg_index: the bucketed multiset and the composite per-bank index that
   back the storage manager's O(log n) decisions. *)

module B = Storage.Seg_index.Bucketed
module I = Storage.Seg_index

let entry = Alcotest.(option (pair int int))

let test_bucketed_basics () =
  let b = B.create () in
  Alcotest.(check int) "empty size" 0 (B.size b);
  Alcotest.check entry "empty min" None (B.min_entry b);
  Alcotest.check entry "empty max" None (B.max_entry b);
  B.add b ~key:5 10;
  B.add b ~key:2 7;
  B.add b ~key:5 3;
  Alcotest.(check int) "size" 3 (B.size b);
  Alcotest.check entry "min key" (Some (2, 7)) (B.min_entry b);
  Alcotest.check entry "max key, lowest id in bucket" (Some (5, 3)) (B.max_entry b);
  B.remove b ~key:2 7;
  Alcotest.check entry "min moves after remove" (Some (5, 3)) (B.min_entry b);
  B.remove b ~key:5 3;
  Alcotest.check entry "tie mate remains" (Some (5, 10)) (B.min_entry b)

let test_bucketed_tie_lowest_id () =
  (* All keys equal: both extrema must report the lowest id — the property
     that makes index picks match the reference scans' first-in-id-order
     tie-breaking. *)
  let b = B.create () in
  List.iter (fun id -> B.add b ~key:4 id) [ 9; 1; 6; 3 ];
  Alcotest.check entry "min tie" (Some (4, 1)) (B.min_entry b);
  Alcotest.check entry "max tie" (Some (4, 1)) (B.max_entry b)

let test_bucketed_misuse_raises () =
  let b = B.create () in
  B.add b ~key:1 2;
  Alcotest.check_raises "double add"
    (Invalid_argument "Seg_index.Bucketed.add: id 2 already under key 1") (fun () ->
      B.add b ~key:1 2);
  Alcotest.check_raises "remove absent id"
    (Invalid_argument "Seg_index.Bucketed.remove: id 3 not under key 1") (fun () ->
      B.remove b ~key:1 3);
  Alcotest.check_raises "remove absent key"
    (Invalid_argument "Seg_index.Bucketed.remove: no bucket for key 9") (fun () ->
      B.remove b ~key:9 2)

(* Model-based check: the bucketed structure against a naive association
   list, over random add/remove/query sequences. *)
let prop_bucketed_matches_model =
  QCheck.Test.make ~name:"seg_index: bucketed matches naive model" ~count:300
    QCheck.(list (triple (int_bound 7) (int_bound 15) bool))
    (fun ops ->
      let b = B.create () in
      let model = ref [] in
      List.iter
        (fun (key, id, add) ->
          if add then begin
            if not (List.mem (key, id) !model) then begin
              B.add b ~key id;
              model := (key, id) :: !model
            end
          end
          else if List.mem (key, id) !model then begin
            B.remove b ~key id;
            model := List.filter (fun e -> e <> (key, id)) !model
          end)
        ops;
      let extreme pick =
        match !model with
        | [] -> None
        | l ->
          let key = List.fold_left (fun acc (k, _) -> pick acc k) (fst (List.hd l)) l in
          let ids = List.filter_map (fun (k, i) -> if k = key then Some i else None) l in
          Some (key, List.fold_left min (List.hd ids) ids)
      in
      B.size b = List.length !model
      && B.min_entry b = extreme min
      && B.max_entry b = extreme max)

(* The cost-benefit heaps.  Two banks of six ids (bank = id / 6) and
   four-slot segments, so live counts run 0..4. *)
let heap_banks = 2
let heap_ids = 12
let heap_nslots = 4

let aged_index () =
  I.create ~nbanks:heap_banks ~nsegments:heap_ids ~nslots:heap_nslots ~wear_keyed:true
    ~track_live:false ~track_erase:false ~track_age:true

let raises_invalid f =
  match f () with () -> false | exception Invalid_argument _ -> true

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
            let heap = I.closed_by_age idx ~bank:b ~live in
            let expected =
              List.filter_map
                (fun (id, l, lt) ->
                  if bank id = b && l = live then Some (lt, id) else None)
                !model
              |> List.sort compare
            in
            if List.sort compare (Array.to_list heap) <> expected then
              QCheck.Test.fail_reportf "bank %d live %d: wrong members" b live;
            (match expected with
            | [] -> ()
            | least :: _ ->
              if heap.(0) <> least then
                QCheck.Test.fail_reportf "bank %d live %d: root is not the minimum" b
                  live);
            Array.iteri
              (fun i node ->
                if i > 0 && compare heap.((i - 1) / 2) node >= 0 then
                  QCheck.Test.fail_reportf
                    "bank %d live %d: parent of %d does not precede it" b live i)
              heap
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
            I.add_closed idx ~bank:(bank id) ~id ~live ~erase:0 ~lt_ns:lt;
            model := (id, live, lt) :: !model
          | 0, Some (_, l, x) ->
            if
              not
                (raises_invalid (fun () ->
                     I.add_closed idx ~bank:(bank id) ~id ~live:l ~erase:0 ~lt_ns:x))
            then QCheck.Test.fail_reportf "double add of %d accepted" id
          | 1, Some (_, l, x) ->
            I.remove_closed idx ~bank:(bank id) ~id ~live:l ~erase:0 ~lt_ns:x;
            model := List.filter (fun (i, _, _) -> i <> id) !model
          | (1 | 2 | 3), None ->
            if
              not
                (raises_invalid (fun () ->
                     I.remove_closed idx ~bank:(bank id) ~id ~live ~erase:0 ~lt_ns:lt))
            then QCheck.Test.fail_reportf "remove of absent %d accepted" id
          | 2, Some (_, l, x) ->
            I.closed_live_changed idx ~bank:(bank id) ~id ~old_live:l ~new_live:live
              ~lt_ns:x;
            model := (id, live, x) :: List.filter (fun (i, _, _) -> i <> id) !model
          | _, Some (_, l, x) ->
            (* A wrong live count or last-touched instant. *)
            let wrong_live = (l + 1) mod (heap_nslots + 1) in
            if
              not
                (raises_invalid (fun () ->
                     I.remove_closed idx ~bank:(bank id) ~id ~live:wrong_live ~erase:0
                       ~lt_ns:x)
                && raises_invalid (fun () ->
                       I.remove_closed idx ~bank:(bank id) ~id ~live:l ~erase:0
                         ~lt_ns:(x + 1)))
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
  I.add_closed idx ~bank:0 ~id:3 ~live:2 ~erase:0 ~lt_ns:100;
  let raises what f = Alcotest.(check bool) what true (raises_invalid f) in
  raises "double add" (fun () ->
      I.add_closed idx ~bank:0 ~id:3 ~live:2 ~erase:0 ~lt_ns:100);
  raises "double add under other keys" (fun () ->
      I.add_closed idx ~bank:0 ~id:3 ~live:1 ~erase:0 ~lt_ns:50);
  raises "remove with the wrong live count" (fun () ->
      I.remove_closed idx ~bank:0 ~id:3 ~live:1 ~erase:0 ~lt_ns:100);
  raises "remove with the wrong lt" (fun () ->
      I.remove_closed idx ~bank:0 ~id:3 ~live:2 ~erase:0 ~lt_ns:99);
  raises "live change from the wrong count" (fun () ->
      I.closed_live_changed idx ~bank:0 ~id:3 ~old_live:3 ~new_live:2 ~lt_ns:100);
  raises "live count beyond nslots" (fun () ->
      I.add_closed idx ~bank:0 ~id:4 ~live:(heap_nslots + 1) ~erase:0 ~lt_ns:0);
  raises "remove of an absent id" (fun () ->
      I.remove_closed idx ~bank:0 ~id:5 ~live:2 ~erase:0 ~lt_ns:100);
  (* None of that disturbed the entry. *)
  Alcotest.(check (array (pair int int)))
    "entry intact" [| (100, 3) |]
    (I.closed_by_age idx ~bank:0 ~live:2);
  I.remove_closed idx ~bank:0 ~id:3 ~live:2 ~erase:0 ~lt_ns:100;
  Alcotest.(check (array (pair int int)))
    "removed" [||]
    (I.closed_by_age idx ~bank:0 ~live:2)

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
    (fun (id, live, lt) -> I.add_closed idx ~bank:(id / 6) ~id ~live ~erase:0 ~lt_ns:lt)
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
  let idx =
    I.create ~nbanks:2 ~nsegments:16 ~nslots:8 ~wear_keyed:true ~track_live:true
      ~track_erase:true ~track_age:false
  in
  I.add_free idx ~bank:0 ~key:3 ~id:0;
  I.add_free idx ~bank:0 ~key:3 ~id:1;
  I.add_free idx ~bank:1 ~key:1 ~id:8;
  Alcotest.(check int) "total" 3 (I.free_count idx);
  Alcotest.(check int) "bank 0" 2 (I.bank_free_count idx ~bank:0);
  Alcotest.check entry "least worn, tie to low id" (Some (3, 0))
    (I.least_worn_free idx ~bank:0);
  I.remove_free idx ~bank:0 ~key:3 ~id:0;
  Alcotest.(check int) "total after remove" 2 (I.free_count idx);
  Alcotest.check entry "survivor" (Some (3, 1)) (I.least_worn_free idx ~bank:0);
  Alcotest.check entry "other bank untouched" (Some (1, 8)) (I.most_worn_free idx ~bank:1)

let suite =
  [
    Alcotest.test_case "bucketed basics" `Quick test_bucketed_basics;
    Alcotest.test_case "bucketed tie -> lowest id" `Quick test_bucketed_tie_lowest_id;
    Alcotest.test_case "bucketed misuse raises" `Quick test_bucketed_misuse_raises;
    QCheck_alcotest.to_alcotest prop_bucketed_matches_model;
    QCheck_alcotest.to_alcotest prop_heaps_match_model;
    Alcotest.test_case "heap misuse raises" `Quick test_heap_misuse_raises;
    Alcotest.test_case "cost-benefit pick walks ties" `Quick test_pick_walks_ties;
    Alcotest.test_case "free side counters" `Quick test_free_side_counters;
  ]
