open Sim

let make ?(id = 0) ?(first = 100) ?(n = 4) () =
  Storage.Segment.create ~id ~first_sector:first ~nslots:n

let test_fresh () =
  let s = make () in
  Alcotest.(check bool) "free" true (Storage.Segment.state s = Storage.Segment.Free);
  Alcotest.(check int) "nslots" 4 (Storage.Segment.nslots s);
  Alcotest.(check int) "live" 0 (Storage.Segment.live_count s);
  Alcotest.(check int) "sector addressing" 102 (Storage.Segment.sector_of_slot s 2);
  Alcotest.check_raises "slot bound" (Invalid_argument "Segment.sector_of_slot")
    (fun () -> ignore (Storage.Segment.sector_of_slot s 4))

let test_open_append_close_cycle () =
  let s = make ~n:2 () in
  Storage.Segment.open_ s;
  Alcotest.(check bool) "open" true (Storage.Segment.state s = Storage.Segment.Open);
  Alcotest.(check bool) "append 1" true (Storage.Segment.append s ~block:10 = 0);
  Alcotest.(check bool) "append 2" true (Storage.Segment.append s ~block:11 = 1);
  Alcotest.(check bool) "auto-closed when full" true
    (Storage.Segment.state s = Storage.Segment.Closed);
  Alcotest.(check int) "live" 2 (Storage.Segment.live_count s);
  Alcotest.(check (float 1e-9)) "utilization" 1.0 (Storage.Segment.utilization s)

let test_append_errors () =
  let s = make () in
  Alcotest.check_raises "append to free" (Invalid_argument "Segment.append: not open")
    (fun () -> ignore (Storage.Segment.append s ~block:1));
  Storage.Segment.open_ s;
  Alcotest.check_raises "double open" (Invalid_argument "Segment.open_: not free")
    (fun () -> Storage.Segment.open_ s)

let test_kill_and_live_blocks () =
  let s = make ~n:3 () in
  Storage.Segment.open_ s;
  ignore (Storage.Segment.append s ~block:7);
  ignore (Storage.Segment.append s ~block:8);
  ignore (Storage.Segment.append s ~block:9);
  Storage.Segment.kill s ~slot:1;
  Alcotest.(check (list int)) "live blocks by slot" [ 7; -1; 9 ]
    (List.init 3 (Storage.Segment.block_at s));
  Alcotest.check_raises "slot bound" (Invalid_argument "Segment.block_at") (fun () ->
      ignore (Storage.Segment.block_at s 3));
  Alcotest.(check int) "used slots unchanged" 3 (Storage.Segment.used_slots s);
  Alcotest.check_raises "double kill" (Invalid_argument "Segment.kill: slot empty")
    (fun () -> Storage.Segment.kill s ~slot:1)

let test_reset_requires_empty () =
  let s = make ~n:2 () in
  Storage.Segment.open_ s;
  ignore (Storage.Segment.append s ~block:1);
  Storage.Segment.close s;
  Alcotest.check_raises "reset with live data"
    (Invalid_argument "Segment.reset_to_free: live blocks remain") (fun () ->
      Storage.Segment.reset_to_free s);
  Storage.Segment.kill s ~slot:0;
  Storage.Segment.reset_to_free s;
  Alcotest.(check bool) "free again" true (Storage.Segment.state s = Storage.Segment.Free);
  Alcotest.(check int) "slots recycled" 0 (Storage.Segment.used_slots s)

let test_touch () =
  let s = make () in
  Storage.Segment.touch s ~at:(Time.of_ns 42);
  Alcotest.(check int) "touched" 42 (Time.to_ns (Storage.Segment.last_touched s))

let prop_live_count_consistent =
  QCheck.Test.make ~name:"segment: live_count = |live_blocks|" ~count:300
    QCheck.(list (int_bound 9))
    (fun kills ->
      let s = Storage.Segment.create ~id:0 ~first_sector:0 ~nslots:10 in
      Storage.Segment.open_ s;
      for b = 0 to 9 do
        ignore (Storage.Segment.append s ~block:b)
      done;
      let live slot = Storage.Segment.block_at s slot >= 0 in
      List.iter (fun slot -> if live slot then Storage.Segment.kill s ~slot) kills;
      Storage.Segment.live_count s = List.length (List.filter live (List.init 10 Fun.id)))

let suite =
  [
    Alcotest.test_case "fresh segment" `Quick test_fresh;
    Alcotest.test_case "open/append/close" `Quick test_open_append_close_cycle;
    Alcotest.test_case "append errors" `Quick test_append_errors;
    Alcotest.test_case "kill & live blocks" `Quick test_kill_and_live_blocks;
    Alcotest.test_case "reset requires empty" `Quick test_reset_requires_empty;
    Alcotest.test_case "touch" `Quick test_touch;
    QCheck_alcotest.to_alcotest prop_live_count_consistent;
  ]
