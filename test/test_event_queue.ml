open Sim

let t ns = Time.of_ns ns

(* One pop through the allocation-free forms: [None] when empty. *)
let pop q =
  if Event_queue.is_empty q then None
  else begin
    let at = Event_queue.peek_time_exn q in
    Some (at, Event_queue.pop_exn q)
  end

let test_empty () =
  let q : int Event_queue.t = Event_queue.create () in
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q);
  Alcotest.(check int) "length 0" 0 (Event_queue.length q);
  Alcotest.check_raises "pop none" Event_queue.Empty (fun () ->
      ignore (Event_queue.pop_exn q));
  Alcotest.check_raises "peek none" Event_queue.Empty (fun () ->
      ignore (Event_queue.peek_time_exn q))

let test_ordering () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~at:(t 30) "c");
  ignore (Event_queue.add q ~at:(t 10) "a");
  ignore (Event_queue.add q ~at:(t 20) "b");
  Alcotest.(check int) "first time" 10 (Time.to_ns (Event_queue.peek_time_exn q));
  Alcotest.(check string) "first value" "a" (Event_queue.pop_exn q);
  Alcotest.(check string) "second" "b" (Event_queue.pop_exn q);
  Alcotest.(check string) "third" "c" (Event_queue.pop_exn q);
  Alcotest.(check bool) "drained" true (Event_queue.is_empty q)

let test_fifo_for_equal_times () =
  let q = Event_queue.create () in
  List.iter (fun v -> ignore (Event_queue.add q ~at:(t 5) v)) [ "x"; "y"; "z" ];
  let order = List.init 3 (fun _ -> Event_queue.pop_exn q) in
  Alcotest.(check (list string)) "insertion order preserved" [ "x"; "y"; "z" ] order

let test_cancel () =
  let q = Event_queue.create () in
  let h1 = Event_queue.add q ~at:(t 1) "a" in
  let h2 = Event_queue.add q ~at:(t 2) "b" in
  ignore (Event_queue.add q ~at:(t 3) "c");
  Event_queue.cancel q h1;
  Alcotest.(check int) "live after cancel" 2 (Event_queue.length q);
  Alcotest.(check string) "cancelled entry skipped" "b" (Event_queue.pop_exn q);
  (* Cancelling twice or after firing is a no-op. *)
  Event_queue.cancel q h1;
  Event_queue.cancel q h2;
  Alcotest.(check int) "still consistent" 1 (Event_queue.length q)

let test_cancel_head_updates_peek () =
  let q = Event_queue.create () in
  let h = Event_queue.add q ~at:(t 1) "head" in
  ignore (Event_queue.add q ~at:(t 9) "tail");
  Event_queue.cancel q h;
  Alcotest.(check int) "peek skips cancelled head" 9
    (Time.to_ns (Event_queue.peek_time_exn q))

(* [none] names no event: cancelling it on a queue with live events, the
   same-instant ties included, leaves the length and the delivery order
   alone. *)
let test_cancel_none () =
  let q = Event_queue.create () in
  List.iter
    (fun (ns, v) -> ignore (Event_queue.add q ~at:(t ns) v))
    [ (5, "b"); (1, "a"); (5, "c"); (9, "d") ];
  Event_queue.cancel q Event_queue.none;
  Alcotest.(check int) "length unchanged" 4 (Event_queue.length q);
  ignore (Event_queue.pop_exn q);
  Event_queue.cancel q Event_queue.none;
  Alcotest.(check int) "length unchanged after a pop" 3 (Event_queue.length q);
  let order = List.init 3 (fun _ -> Event_queue.pop_exn q) in
  Alcotest.(check (list string)) "delivery order unchanged" [ "b"; "c"; "d" ] order

let test_interleaved_add_pop () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~at:(t 10) 10);
  ignore (Event_queue.add q ~at:(t 5) 5);
  Alcotest.(check int) "min first" 5 (Event_queue.pop_exn q);
  ignore (Event_queue.add q ~at:(t 1) 1);
  Alcotest.(check int) "new min" 1 (Event_queue.pop_exn q);
  Alcotest.(check int) "remaining" 10 (Event_queue.pop_exn q)

let prop_pop_sorted =
  QCheck.Test.make ~name:"event_queue: pops are time-sorted" ~count:300
    QCheck.(list (int_bound 100_000))
    (fun times ->
      let q = Event_queue.create () in
      List.iteri (fun i at -> ignore (Event_queue.add q ~at:(t at) i)) times;
      let rec drain acc =
        match pop q with
        | Some (at, _) -> drain (Time.to_ns at :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      popped = List.sort compare times)

let prop_cancel_removes =
  QCheck.Test.make ~name:"event_queue: cancelled events never pop" ~count:200
    QCheck.(list (pair (int_bound 1000) bool))
    (fun entries ->
      let q = Event_queue.create () in
      let kept = ref [] in
      List.iteri
        (fun i (at, keep) ->
          let h = Event_queue.add q ~at:(t at) i in
          if keep then kept := i :: !kept else Event_queue.cancel q h)
        entries;
      let rec drain acc =
        match pop q with
        | Some (_, v) -> drain (v :: acc)
        | None -> acc
      in
      let popped = drain [] in
      List.sort compare popped = List.sort compare !kept)

(* --- Model check -------------------------------------------------------------

   Random add/cancel/pop interleavings against a naive insertion-ordered
   reference (mirrors test_seg_index's model-based approach).  Instants
   come from a small range, so ties are common and many adds land before
   the last popped instant.  Some cancels target handles that already
   fired or were cancelled.  After every operation the queue's length must
   match the model's.  Peeks are an operation of
   their own, so a pop can follow a cancel without a peek tidying the root
   in between. *)

let prop_matches_model =
  QCheck.Test.make ~name:"event_queue(heap): matches reference model" ~count:300
    QCheck.(list (triple (int_bound 6) (int_bound 63) small_nat))
    (fun ops ->
      let q = Event_queue.create () in
      (* Alive entries in insertion order: (at_ns, id, handle). *)
      let model = ref [] in
      (* Handles of entries that fired or were cancelled. *)
      let dead = ref [] in
      let next_id = ref 0 in
      let expected_min () =
        (* Earliest instant; insertion order breaks ties. *)
        match !model with
        | [] -> None
        | first :: rest ->
          Some
            (List.fold_left
               (fun ((bat, _, _) as best) ((at, _, _) as e) ->
                 if at < bat then e else best)
               first rest)
      in
      let remove id = model := List.filter (fun (_, i, _) -> i <> id) !model in
      let ok = ref true in
      let do_peek () =
        match expected_min () with
        | None -> if not (Event_queue.is_empty q) then ok := false
        | Some (at, id, _) ->
          if Time.to_ns (Event_queue.peek_time_exn q) <> at || Event_queue.peek_exn q <> id
          then ok := false
      in
      let do_pop () =
        match (pop q, expected_min ()) with
        | None, None -> ()
        | Some (at, v), Some (eat, eid, h) ->
          if Time.to_ns at <> eat || v <> eid then ok := false
          else begin
            remove eid;
            dead := h :: !dead
          end
        | Some _, None | None, Some _ -> ok := false
      in
      List.iter
        (fun (action, at, x) ->
          (match action with
          | 0 | 1 ->
            let id = !next_id in
            incr next_id;
            let h = Event_queue.add q ~at:(t at) id in
            model := !model @ [ (at, id, h) ]
          | 2 ->
            let n = List.length !model in
            if n > 0 then begin
              let _, id, h = List.nth !model (x mod n) in
              Event_queue.cancel q h;
              remove id;
              dead := h :: !dead
            end
          | 3 ->
            let n = List.length !dead in
            if n > 0 then Event_queue.cancel q (List.nth !dead (x mod n))
          | 4 | 5 -> do_pop ()
          | _ -> do_peek ());
          if Event_queue.length q <> List.length !model then ok := false)
        ops;
      while !ok && not (Event_queue.is_empty q) do
        do_pop ();
        if Event_queue.length q <> List.length !model then ok := false
      done;
      !ok && Event_queue.is_empty q && !model = [])

(* Regression for the space leak: popped entries must not keep payload
   closures reachable from the heap's array. *)
let test_popped_payloads_collectible () =
  let q = Event_queue.create () in
  let n = 32 in
  let weak = Weak.create n in
  for i = 0 to n - 1 do
    let payload = ref i in
    Weak.set weak i (Some payload);
    ignore (Event_queue.add q ~at:(t i) payload)
  done;
  while not (Event_queue.is_empty q) do
    ignore (Event_queue.pop_exn q)
  done;
  Gc.full_major ();
  let retained = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check weak i then incr retained
  done;
  Alcotest.(check int) "no payloads retained" 0 !retained;
  (* Keeps [q] reachable through the collection above. *)
  Alcotest.(check int) "drained" 0 (Event_queue.length q)

let suite =
  [
    Alcotest.test_case "empty queue" `Quick test_empty;
    Alcotest.test_case "ordering" `Quick test_ordering;
    Alcotest.test_case "FIFO for equal times" `Quick test_fifo_for_equal_times;
    Alcotest.test_case "cancel" `Quick test_cancel;
    Alcotest.test_case "cancel head" `Quick test_cancel_head_updates_peek;
    Alcotest.test_case "cancel none" `Quick test_cancel_none;
    Alcotest.test_case "interleaved add/pop" `Quick test_interleaved_add_pop;
    QCheck_alcotest.to_alcotest prop_pop_sorted;
    QCheck_alcotest.to_alcotest prop_cancel_removes;
    QCheck_alcotest.to_alcotest prop_matches_model;
    Alcotest.test_case "popped payloads collectible" `Quick
      test_popped_payloads_collectible;
  ]
