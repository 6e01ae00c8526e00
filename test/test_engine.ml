open Sim

let test_initial_state () =
  let e = Engine.create () in
  Alcotest.(check int) "clock at zero" 0 (Time.to_ns (Engine.now e));
  Alcotest.(check int) "no events" 0 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "run on empty leaves the clock" 0 (Time.to_ns (Engine.now e))

let test_event_order_and_clock () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~at:(Time.of_ns 20) (fun e -> log := ("b", Time.to_ns (Engine.now e)) :: !log));
  ignore (Engine.schedule e ~at:(Time.of_ns 10) (fun e -> log := ("a", Time.to_ns (Engine.now e)) :: !log));
  Engine.run e;
  Alcotest.(check (list (pair string int)))
    "events in order at their instants"
    [ ("a", 10); ("b", 20) ]
    (List.rev !log)

let test_schedule_in_past_rejected () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~at:(Time.of_ns 100) (fun _ -> ()));
  Engine.run e;
  Alcotest.check_raises "past scheduling"
    (Invalid_argument "Engine.schedule: instant in the past") (fun () ->
      ignore (Engine.schedule e ~at:(Time.of_ns 50) (fun _ -> ())))

let test_schedule_after () =
  let e = Engine.create () in
  let fired = ref (-1) in
  ignore (Engine.schedule_after e ~after:(Time.span_ns 42) (fun e -> fired := Time.to_ns (Engine.now e)));
  Engine.run e;
  Alcotest.(check int) "relative schedule" 42 !fired

let test_cascading_events () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec chain e =
    incr count;
    if !count < 5 then ignore (Engine.schedule_after e ~after:(Time.span_ns 10) chain)
  in
  ignore (Engine.schedule_after e ~after:(Time.span_ns 10) chain);
  Engine.run e;
  Alcotest.(check int) "chain length" 5 !count;
  Alcotest.(check int) "final clock" 50 (Time.to_ns (Engine.now e))

let test_run_until () =
  let e = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun ns -> ignore (Engine.schedule e ~at:(Time.of_ns ns) (fun _ -> fired := ns :: !fired)))
    [ 10; 20; 30; 40 ];
  Engine.run_until e (Time.of_ns 25);
  Alcotest.(check (list int)) "only due events" [ 10; 20 ] (List.rev !fired);
  Alcotest.(check int) "clock advanced exactly" 25 (Time.to_ns (Engine.now e));
  Engine.run_until e (Time.of_ns 100);
  Alcotest.(check (list int)) "rest delivered" [ 10; 20; 30; 40 ] (List.rev !fired);
  Alcotest.(check int) "clock at limit" 100 (Time.to_ns (Engine.now e));
  Engine.run_until e (Time.of_ns 10);
  Alcotest.(check int) "no backwards motion" 100 (Time.to_ns (Engine.now e))

let test_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~at:(Time.of_ns 10) (fun _ -> fired := true) in
  Engine.cancel e h;
  Engine.run e;
  Alcotest.(check bool) "cancelled event never fires" false !fired

let test_schedule_every () =
  let e = Engine.create () in
  let ticks = ref [] in
  Engine.schedule_every e ~every:(Time.span_ns 100) ~until:(Time.of_ns 450) (fun e ->
      ticks := Time.to_ns (Engine.now e) :: !ticks);
  Engine.run e;
  Alcotest.(check (list int)) "periodic ticks" [ 100; 200; 300; 400 ] (List.rev !ticks);
  (* No phantom event past [until]: the drained clock stops at the last
     tick instead of coasting one period beyond the window. *)
  Alcotest.(check int) "clock stops at last tick" 400 (Time.to_ns (Engine.now e));
  Alcotest.(check int) "agenda empty" 0 (Engine.pending e)

let test_schedule_every_until_inclusive () =
  (* A tick landing exactly on [until] fires — pinned, the old check
     decided after the period had elapsed. *)
  let e = Engine.create () in
  let ticks = ref [] in
  Engine.schedule_every e ~every:(Time.span_ns 100) ~until:(Time.of_ns 400) (fun e ->
      ticks := Time.to_ns (Engine.now e) :: !ticks);
  Engine.run e;
  Alcotest.(check (list int)) "tick on until fires" [ 100; 200; 300; 400 ]
    (List.rev !ticks);
  Alcotest.(check int) "nothing scheduled past until" 0 (Engine.pending e);
  (* until before the first tick: never fires, nothing enqueued. *)
  let e = Engine.create () in
  let fired = ref false in
  Engine.schedule_every e ~every:(Time.span_ns 100) ~until:(Time.of_ns 99) (fun _ ->
      fired := true);
  Alcotest.(check int) "no first tick enqueued" 0 (Engine.pending e);
  Engine.run e;
  Alcotest.(check bool) "never fires" false !fired

let test_schedule_every_zero_period () =
  let e = Engine.create () in
  Alcotest.check_raises "zero period"
    (Invalid_argument "Engine.schedule_every: zero period") (fun () ->
      Engine.schedule_every e ~every:Time.span_zero (fun _ -> ()))

let test_run_until_delivers_whole_group () =
  let e = Engine.create () in
  let log = ref [] in
  List.iter
    (fun tag -> ignore (Engine.schedule e ~at:(Time.of_ns 5) (fun _ -> log := tag :: !log)))
    [ 1; 2 ];
  ignore (Engine.schedule e ~at:(Time.of_ns 9) (fun _ -> log := 9 :: !log));
  ignore
    (Engine.schedule e ~at:(Time.of_ns 5) (fun e ->
         (* An event added at the current instant runs in the same call. *)
         ignore (Engine.schedule e ~at:(Engine.now e) (fun _ -> log := 4 :: !log));
         log := 3 :: !log));
  Engine.run_until e (Time.of_ns 5);
  Alcotest.(check (list int))
    "whole group, including same-instant adds" [ 1; 2; 3; 4 ] (List.rev !log);
  Alcotest.(check int) "clock at the group instant" 5 (Time.to_ns (Engine.now e));
  Alcotest.(check int) "later event untouched" 1 (Engine.pending e)

let test_same_instant_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  List.iter
    (fun tag -> ignore (Engine.schedule e ~at:(Time.of_ns 5) (fun _ -> log := tag :: !log)))
    [ 1; 2; 3 ];
  Engine.run e;
  Alcotest.(check (list int)) "same-instant order" [ 1; 2; 3 ] (List.rev !log)

let suite =
  [
    Alcotest.test_case "initial state" `Quick test_initial_state;
    Alcotest.test_case "order and clock" `Quick test_event_order_and_clock;
    Alcotest.test_case "past schedule rejected" `Quick test_schedule_in_past_rejected;
    Alcotest.test_case "schedule_after" `Quick test_schedule_after;
    Alcotest.test_case "cascading events" `Quick test_cascading_events;
    Alcotest.test_case "run_until" `Quick test_run_until;
    Alcotest.test_case "cancel" `Quick test_cancel;
    Alcotest.test_case "schedule_every" `Quick test_schedule_every;
    Alcotest.test_case "schedule_every until inclusive" `Quick
      test_schedule_every_until_inclusive;
    Alcotest.test_case "zero period" `Quick test_schedule_every_zero_period;
    Alcotest.test_case "same-instant FIFO" `Quick test_same_instant_fifo;
    Alcotest.test_case "run_until delivers whole group" `Quick
      test_run_until_delivers_whole_group;
  ]
