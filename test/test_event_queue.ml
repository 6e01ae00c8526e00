open Sim

let t ns = Time.of_ns ns
let kind_name = function Event_queue.Heap -> "heap" | Event_queue.Wheel -> "wheel"

let test_empty () =
  let q : int Event_queue.t = Event_queue.create () in
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q);
  Alcotest.(check int) "length 0" 0 (Event_queue.length q);
  Alcotest.(check bool) "pop none" true (Event_queue.pop q = None);
  Alcotest.(check bool) "peek none" true (Event_queue.peek_time q = None)

let test_ordering () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~at:(t 30) "c");
  ignore (Event_queue.add q ~at:(t 10) "a");
  ignore (Event_queue.add q ~at:(t 20) "b");
  let pop () = Option.get (Event_queue.pop q) in
  let at1, v1 = pop () in
  Alcotest.(check int) "first time" 10 (Time.to_ns at1);
  Alcotest.(check string) "first value" "a" v1;
  Alcotest.(check string) "second" "b" (snd (pop ()));
  Alcotest.(check string) "third" "c" (snd (pop ()));
  Alcotest.(check bool) "drained" true (Event_queue.is_empty q)

let test_fifo_for_equal_times () =
  let q = Event_queue.create () in
  List.iter (fun v -> ignore (Event_queue.add q ~at:(t 5) v)) [ "x"; "y"; "z" ];
  let order = List.init 3 (fun _ -> snd (Option.get (Event_queue.pop q))) in
  Alcotest.(check (list string)) "insertion order preserved" [ "x"; "y"; "z" ] order

let test_cancel () =
  let q = Event_queue.create () in
  let h1 = Event_queue.add q ~at:(t 1) "a" in
  ignore (Event_queue.add q ~at:(t 2) "b");
  Event_queue.cancel q h1;
  Alcotest.(check int) "live after cancel" 1 (Event_queue.length q);
  Alcotest.(check string) "cancelled entry skipped" "b" (snd (Option.get (Event_queue.pop q)));
  (* Cancelling twice or after firing is a no-op. *)
  Event_queue.cancel q h1;
  Alcotest.(check int) "still consistent" 0 (Event_queue.length q)

let test_cancel_head_updates_peek () =
  let q = Event_queue.create () in
  let h = Event_queue.add q ~at:(t 1) "head" in
  ignore (Event_queue.add q ~at:(t 9) "tail");
  Event_queue.cancel q h;
  Alcotest.(check int) "peek skips cancelled head" 9
    (Time.to_ns (Option.get (Event_queue.peek_time q)))

let test_clear () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~at:(t 1) 1);
  ignore (Event_queue.add q ~at:(t 2) 2);
  Event_queue.clear q;
  Alcotest.(check bool) "cleared" true (Event_queue.is_empty q)

let test_interleaved_add_pop () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~at:(t 10) 10);
  ignore (Event_queue.add q ~at:(t 5) 5);
  Alcotest.(check int) "min first" 5 (snd (Option.get (Event_queue.pop q)));
  ignore (Event_queue.add q ~at:(t 1) 1);
  Alcotest.(check int) "new min" 1 (snd (Option.get (Event_queue.pop q)));
  Alcotest.(check int) "remaining" 10 (snd (Option.get (Event_queue.pop q)))

let prop_pop_sorted =
  QCheck.Test.make ~name:"event_queue: pops are time-sorted" ~count:300
    QCheck.(list (int_bound 100_000))
    (fun times ->
      let q = Event_queue.create () in
      List.iteri (fun i at -> ignore (Event_queue.add q ~at:(t at) i)) times;
      let rec drain acc =
        match Event_queue.pop q with
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
        match Event_queue.pop q with
        | Some (_, v) -> drain (v :: acc)
        | None -> acc
      in
      let popped = drain [] in
      List.sort compare popped = List.sort compare !kept)

(* --- Kind-parametrized model check ----------------------------------------

   Random add/cancel/pop interleavings against a naive insertion-ordered
   reference, over both queue kinds (mirrors test_seg_index's model-based
   approach).  Adds respect the wheel's contract — never before the last
   popped instant — which is exactly what the engine guarantees.  An add
   lands [d] units of 32^k ns past that instant, for k up to 11 and d up
   to 40, so instants differ from the wheel's cursor in every 5-bit group
   and reach all 13 wheel levels (d >= 32 at k = 11 carries into the
   top one). *)

let prop_matches_model kind =
  let name = Printf.sprintf "event_queue(%s): matches reference model" (kind_name kind) in
  QCheck.Test.make ~name ~count:300
    QCheck.(list (triple (int_bound 2) (int_bound 11) (int_bound 40)))
    (fun ops ->
      let q = Event_queue.create ~kind () in
      (* Alive entries in insertion order: (at_ns, id, handle). *)
      let model = ref [] in
      let next_id = ref 0 in
      let watermark = ref 0 in
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
      let ok = ref true in
      let do_pop () =
        match (Event_queue.pop q, expected_min ()) with
        | None, None -> ()
        | Some (at, v), Some (eat, eid, _) ->
          if Time.to_ns at <> eat || v <> eid then ok := false
          else begin
            watermark := eat;
            model := List.filter (fun (_, id, _) -> id <> eid) !model
          end
        | Some _, None | None, Some _ -> ok := false
      in
      List.iter
        (fun (action, level, x) ->
          match action with
          | 0 ->
            let ahead = x lsl (5 * level) in
            let at =
              if ahead > max_int - !watermark then !watermark else !watermark + ahead
            in
            let id = !next_id in
            incr next_id;
            let h = Event_queue.add q ~at:(t at) id in
            model := !model @ [ (at, id, h) ]
          | 1 ->
            let n = List.length !model in
            if n > 0 then begin
              let at, id, h = List.nth !model (x mod n) in
              ignore at;
              Event_queue.cancel q h;
              model := List.filter (fun (_, i, _) -> i <> id) !model
            end
          | _ -> do_pop ())
        ops;
      while !ok && not (Event_queue.is_empty q) do
        do_pop ()
      done;
      !ok && Event_queue.is_empty q && !model = [])

let test_wheel_rejects_past_add () =
  let q = Event_queue.create ~kind:Event_queue.Wheel () in
  ignore (Event_queue.add q ~at:(t 100) "a");
  Alcotest.(check string) "pop" "a" (snd (Option.get (Event_queue.pop q)));
  ignore (Event_queue.add q ~at:(t 100) "same instant ok");
  Alcotest.check_raises "below the cursor"
    (Invalid_argument "Timing_wheel.add: instant before the wheel cursor") (fun () ->
      ignore (Event_queue.add q ~at:(t 99) "b"))

(* Far-apart instants force entries into high wheel levels and exercise
   the cascade path on extraction. *)
let test_wheel_cascades () =
  let q = Event_queue.create ~kind:Event_queue.Wheel () in
  let times =
    [ 1_048_576; 33; 0; 1 lsl 61; 1_000_000; 31; 1_024; 1; 32_768; 1 lsl 40; 32; 1_000 ]
  in
  List.iter (fun at -> ignore (Event_queue.add q ~at:(t at) at)) times;
  let popped = List.init (List.length times) (fun _ -> snd (Option.get (Event_queue.pop q))) in
  Alcotest.(check (list int)) "sorted across levels" (List.sort compare times) popped

(* Regression for the space leak: popped (and cleared) entries must not
   keep payload closures reachable from the queue's internal arrays. *)
let test_popped_payloads_collectible () =
  List.iter
    (fun kind ->
      let q = Event_queue.create ~kind () in
      let n = 32 in
      let weak = Weak.create n in
      for i = 0 to n - 1 do
        let payload = ref i in
        Weak.set weak i (Some payload);
        ignore (Event_queue.add q ~at:(t i) payload)
      done;
      for _ = 1 to n / 2 do
        ignore (Event_queue.pop q)
      done;
      Event_queue.clear q;
      Gc.full_major ();
      let retained = ref 0 in
      for i = 0 to n - 1 do
        if Weak.check weak i then incr retained
      done;
      Alcotest.(check int)
        (Printf.sprintf "no payloads retained (%s)" (kind_name kind))
        0 !retained)
    [ Event_queue.Heap; Event_queue.Wheel ]

let suite =
  [
    Alcotest.test_case "empty queue" `Quick test_empty;
    Alcotest.test_case "ordering" `Quick test_ordering;
    Alcotest.test_case "FIFO for equal times" `Quick test_fifo_for_equal_times;
    Alcotest.test_case "cancel" `Quick test_cancel;
    Alcotest.test_case "cancel head" `Quick test_cancel_head_updates_peek;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "interleaved add/pop" `Quick test_interleaved_add_pop;
    QCheck_alcotest.to_alcotest prop_pop_sorted;
    QCheck_alcotest.to_alcotest prop_cancel_removes;
    QCheck_alcotest.to_alcotest (prop_matches_model Event_queue.Heap);
    QCheck_alcotest.to_alcotest (prop_matches_model Event_queue.Wheel);
    Alcotest.test_case "wheel rejects past add" `Quick test_wheel_rejects_past_add;
    Alcotest.test_case "wheel cascades across levels" `Quick test_wheel_cascades;
    Alcotest.test_case "popped payloads collectible" `Quick
      test_popped_payloads_collectible;
  ]
