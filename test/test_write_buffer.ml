open Sim

let make ?(capacity = 4) ?(delay = 30.0) ?(refresh = true) () =
  Storage.Write_buffer.create
    {
      Storage.Write_buffer.capacity_blocks = capacity;
      writeback_delay = Time.span_s delay;
      refresh_on_rewrite = refresh;
    }

let sec n = Time.of_ns (int_of_float (n *. 1e9))

(* Up to [limit] expired blocks, in deadline order: what one writeback
   timer firing takes. *)
let expired ?(limit = max_int) b ~now =
  let rec go n acc =
    if n >= limit then List.rev acc
    else
      match Storage.Write_buffer.take_expired_exn b ~now with
      | block -> go (n + 1) (block :: acc)
      | exception Not_found -> List.rev acc
  in
  go 0 []

let test_default_config_is_baker () =
  let c = Storage.Write_buffer.default_config in
  Alcotest.(check int) "1MB of blocks" 2048 c.Storage.Write_buffer.capacity_blocks;
  Alcotest.(check (float 1e-9)) "30s delay" 30.0
    (Time.span_to_s c.Storage.Write_buffer.writeback_delay)

let test_admit_and_absorb () =
  let b = make () in
  Alcotest.(check bool) "admit" true
    (Storage.Write_buffer.write b ~now:(sec 0.0) ~block:1 = Storage.Write_buffer.Admitted);
  Alcotest.(check bool) "absorb rewrite" true
    (Storage.Write_buffer.write b ~now:(sec 1.0) ~block:1 = Storage.Write_buffer.Absorbed);
  Alcotest.(check int) "size 1" 1 (Storage.Write_buffer.size b);
  Alcotest.(check int) "absorbed counter" 1 (Storage.Write_buffer.absorbed_writes b);
  Alcotest.(check int) "admitted counter" 1 (Storage.Write_buffer.admitted_blocks b)

let test_capacity_pressure () =
  let b = make ~capacity:2 () in
  ignore (Storage.Write_buffer.write b ~now:(sec 0.0) ~block:1);
  ignore (Storage.Write_buffer.write b ~now:(sec 1.0) ~block:2);
  Alcotest.(check bool) "full" true (Storage.Write_buffer.is_full b);
  Alcotest.(check bool) "third write needs eviction" true
    (Storage.Write_buffer.write b ~now:(sec 2.0) ~block:3
    = Storage.Write_buffer.Needs_eviction);
  Alcotest.(check int) "nothing inserted" 2 (Storage.Write_buffer.size b);
  (* Oldest deadline is the eviction victim. *)
  Alcotest.(check int) "victim is oldest" 1 (Storage.Write_buffer.oldest_exn b);
  Alcotest.(check bool) "take removes" true (Storage.Write_buffer.take b ~block:1);
  Alcotest.(check bool) "retry succeeds" true
    (Storage.Write_buffer.write b ~now:(sec 2.0) ~block:3 = Storage.Write_buffer.Admitted)

let test_zero_capacity_write_through () =
  (* Capacity zero means a true pass-through: every write is pushed straight
     to eviction and the buffer itself never holds, expires, or counts
     anything. *)
  let b = make ~capacity:0 () in
  Alcotest.(check bool) "always needs eviction" true
    (Storage.Write_buffer.write b ~now:(sec 0.0) ~block:1
    = Storage.Write_buffer.Needs_eviction);
  Alcotest.(check bool) "rewrite too" true
    (Storage.Write_buffer.write b ~now:(sec 1.0) ~block:1
    = Storage.Write_buffer.Needs_eviction);
  Alcotest.(check int) "never holds anything" 0 (Storage.Write_buffer.size b);
  Alcotest.(check bool) "full by definition" true (Storage.Write_buffer.is_full b);
  Alcotest.(check bool) "nothing resident" false (Storage.Write_buffer.mem b ~block:1);
  Alcotest.check_raises "no victim" Not_found (fun () ->
      ignore (Storage.Write_buffer.oldest_exn b));
  Alcotest.check_raises "no deadline pending" Not_found (fun () ->
      ignore (Storage.Write_buffer.next_deadline_exn b));
  Alcotest.(check (list int)) "nothing ever expires" []
    (expired b ~now:(sec 1000.0));
  Alcotest.(check (list int)) "drain is empty" [] (Storage.Write_buffer.drain b);
  Alcotest.(check int) "no admissions counted" 0
    (Storage.Write_buffer.admitted_blocks b);
  Alcotest.(check int) "no absorptions counted" 0
    (Storage.Write_buffer.absorbed_writes b)

let test_expiry_order_and_timing () =
  let b = make ~capacity:10 ~delay:30.0 () in
  ignore (Storage.Write_buffer.write b ~now:(sec 0.0) ~block:1);
  ignore (Storage.Write_buffer.write b ~now:(sec 5.0) ~block:2);
  Alcotest.(check (list int)) "nothing expired yet" []
    (expired b ~now:(sec 29.0));
  Alcotest.(check (list int)) "first expires" [ 1 ]
    (expired b ~now:(sec 30.0));
  Alcotest.(check (list int)) "second follows" [ 2 ]
    (expired b ~now:(sec 40.0));
  Alcotest.(check int) "empty" 0 (Storage.Write_buffer.size b)

let test_take_expired_limit () =
  let b = make ~capacity:10 ~delay:1.0 () in
  for block = 1 to 5 do
    ignore (Storage.Write_buffer.write b ~now:(sec 0.0) ~block)
  done;
  let first = expired ~limit:2 b ~now:(sec 10.0) in
  Alcotest.(check (list int)) "limited batch" [ 1; 2 ] first;
  Alcotest.(check int) "rest retained" 3 (Storage.Write_buffer.size b)

let test_refresh_on_rewrite () =
  let b = make ~capacity:10 ~delay:30.0 ~refresh:true () in
  ignore (Storage.Write_buffer.write b ~now:(sec 0.0) ~block:1);
  ignore (Storage.Write_buffer.write b ~now:(sec 20.0) ~block:1);
  Alcotest.(check (list int)) "deadline pushed out" []
    (expired b ~now:(sec 35.0));
  Alcotest.(check (list int)) "expires at refreshed deadline" [ 1 ]
    (expired b ~now:(sec 50.0))

let test_no_refresh_variant () =
  let b = make ~capacity:10 ~delay:30.0 ~refresh:false () in
  ignore (Storage.Write_buffer.write b ~now:(sec 0.0) ~block:1);
  ignore (Storage.Write_buffer.write b ~now:(sec 20.0) ~block:1);
  Alcotest.(check (list int)) "original deadline holds" [ 1 ]
    (expired b ~now:(sec 31.0))

let test_remove_cancels () =
  let b = make () in
  ignore (Storage.Write_buffer.write b ~now:(sec 0.0) ~block:1);
  Alcotest.(check bool) "dirty removed" true (Storage.Write_buffer.remove b ~block:1);
  Alcotest.(check bool) "absent remove" false (Storage.Write_buffer.remove b ~block:1);
  Alcotest.(check int) "cancelled counter" 1 (Storage.Write_buffer.cancelled_blocks b);
  Alcotest.(check (list int)) "never flushed" []
    (expired b ~now:(sec 100.0))

let test_drain () =
  let b = make ~capacity:10 () in
  ignore (Storage.Write_buffer.write b ~now:(sec 0.0) ~block:3);
  ignore (Storage.Write_buffer.write b ~now:(sec 1.0) ~block:1);
  ignore (Storage.Write_buffer.write b ~now:(sec 2.0) ~block:2);
  Alcotest.(check (list int)) "drain in deadline order" [ 3; 1; 2 ]
    (Storage.Write_buffer.drain b);
  Alcotest.(check int) "empty after drain" 0 (Storage.Write_buffer.size b)

let test_stale_entries_interleaved () =
  (* Refreshes and removals leave stale queue entries sharing instants
     with live ones.  A limited batch must deliver live blocks in
     deadline order and count only them against the limit. *)
  let b = make ~capacity:10 ~delay:30.0 ~refresh:true () in
  (* Blocks 1..4 admitted at t=0 (deadline 30), then 1 and 3 refreshed at
     t=5 (deadline 35) — their t=30 entries go stale.  Block 5 admitted
     at t=5 lands at the same 35 instant as the refreshes.  Block 2 is
     removed: its t=30 entry is stale too. *)
  for block = 1 to 4 do
    ignore (Storage.Write_buffer.write b ~now:(sec 0.0) ~block)
  done;
  ignore (Storage.Write_buffer.write b ~now:(sec 5.0) ~block:1);
  ignore (Storage.Write_buffer.write b ~now:(sec 5.0) ~block:3);
  ignore (Storage.Write_buffer.write b ~now:(sec 5.0) ~block:5);
  ignore (Storage.Write_buffer.remove b ~block:2);
  (* At t=30 only block 4 is genuinely due; the stale entries for 1, 2,
     and 3 at that instant must not consume the limit or surface. *)
  Alcotest.(check (list int)) "stale entries don't count against limit" [ 4 ]
    (expired ~limit:1 b ~now:(sec 30.0));
  (* The refreshed deadline delivers 1, 3, 5 in admission order within
     the shared instant, limit counting live blocks only. *)
  Alcotest.(check (list int)) "same-instant batch respects limit" [ 1; 3 ]
    (expired ~limit:2 b ~now:(sec 35.0));
  Alcotest.(check (list int)) "remainder follows in order" [ 5 ]
    (expired b ~now:(sec 35.0));
  Alcotest.(check int) "buffer drained" 0 (Storage.Write_buffer.size b)

let test_refresh_does_not_leak_queue_entries () =
  (* Each refresh re-adds a queue entry; compaction must keep the queue
     within a constant factor of the live population instead of letting
     stale entries pile up one per rewrite. *)
  let b = make ~capacity:8 ~delay:30.0 ~refresh:true () in
  for round = 0 to 999 do
    for block = 1 to 8 do
      ignore (Storage.Write_buffer.write b ~now:(sec (float_of_int round)) ~block)
    done
  done;
  Alcotest.(check int) "live population" 8 (Storage.Write_buffer.size b);
  Alcotest.(check bool)
    (Printf.sprintf "queue stays bounded (pending %d)"
       (Storage.Write_buffer.pending_entries b))
    true
    (Storage.Write_buffer.pending_entries b <= 32);
  (* And the survivors still come out in deadline order. *)
  Alcotest.(check (list int)) "delivery order intact" [ 1; 2; 3; 4; 5; 6; 7; 8 ]
    (expired b ~now:(sec 2000.0))

(* Conservation: every admitted block is eventually flushed (taken),
   cancelled, or still resident. *)
let prop_conservation =
  QCheck.Test.make ~name:"write_buffer: blocks are conserved" ~count:300
    QCheck.(list (pair (int_bound 20) (int_bound 2)))
    (fun ops ->
      let b = make ~capacity:8 ~delay:10.0 () in
      let taken = ref 0 in
      let clock = ref 0.0 in
      List.iter
        (fun (block, action) ->
          clock := !clock +. 1.0;
          match action with
          | 0 -> begin
            match Storage.Write_buffer.write b ~now:(sec !clock) ~block with
            | Storage.Write_buffer.Needs_eviction -> begin
              match Storage.Write_buffer.oldest_exn b with
              | victim ->
                ignore (Storage.Write_buffer.take b ~block:victim);
                incr taken;
                ignore (Storage.Write_buffer.write b ~now:(sec !clock) ~block)
              | exception Not_found -> ()
            end
            | Storage.Write_buffer.Admitted | Storage.Write_buffer.Absorbed -> ()
          end
          | 1 -> ignore (Storage.Write_buffer.remove b ~block)
          | _ ->
            taken := !taken + List.length (expired b ~now:(sec !clock)))
        ops;
      Storage.Write_buffer.admitted_blocks b
      = !taken + Storage.Write_buffer.cancelled_blocks b + Storage.Write_buffer.size b)

(* --- Oracle --------------------------------------------------------------

   The production buffer against [Write_buffer_oracle] (the Hashtbl,
   pop-and-re-add implementation it replaced), op for op on random traces.
   Every result must agree, and so must [size] and [pending_entries] after
   every op: which stale entries a peek or an expiry drops, and when
   compaction runs, decide where a block removed and re-admitted at an
   equal deadline is delivered.  The traces mix:
   - same-instant bursts: the clock stands still for several ops at a time;
   - removes followed by re-admission at an equal deadline, which makes a
     stale entry live again;
   - capacities of 1 to 8 blocks, so writes evict through peeks;
   - refresh-heavy rewrites of a few blocks, which trigger compaction. *)

module WB = Storage.Write_buffer
module O = Write_buffer_oracle

let tick_ns = 250_000_000

(* [None], or the first mismatch of the trace seeded [seed]. *)
let oracle_mismatch ~seed ~ops =
  let rng = Rng.create ~seed in
  let capacity = if Rng.int rng 20 = 0 then 0 else 1 + Rng.int rng 8 in
  let nblocks = 2 + Rng.int rng 30 in
  let cfg =
    {
      WB.capacity_blocks = capacity;
      writeback_delay = Time.span_ns (tick_ns * Rng.int rng 8);
      refresh_on_rewrite = Rng.int rng 5 > 0;
    }
  in
  let wb = WB.create cfg and o = O.create cfg in
  let now = ref 0 in
  let mismatch = ref None in
  let i = ref 0 in
  let check what agree =
    if Option.is_none !mismatch && not agree then
      mismatch := Some (Printf.sprintf "seed %d, op %d: %s" seed !i what)
  in
  let found f = match f () with v -> Some v | exception Not_found -> None in
  let rec write block =
    let at = Time.of_ns !now in
    let r = WB.write wb ~now:at ~block in
    check "write" (r = O.write o ~now:at ~block);
    if r = WB.Needs_eviction && capacity > 0 then begin
      let victim = found (fun () -> WB.oldest_exn wb) in
      check "eviction peek" (victim = O.oldest o);
      match victim with
      | Some v ->
        check "evict" (WB.take wb ~block:v = O.take o ~block:v);
        write block
      | None -> ()
    end
  in
  let take_expired ~limit =
    let at = Time.of_ns !now in
    check "take_expired" (expired ~limit wb ~now:at = O.take_expired ~limit o ~now:at)
  in
  while !i < ops && Option.is_none !mismatch do
    let block = Rng.int rng nblocks in
    (match Rng.int rng 100 with
    | k when k < 40 -> write block
    | k when k < 50 -> check "remove" (WB.remove wb ~block = O.remove o ~block)
    | k when k < 55 -> check "take" (WB.take wb ~block = O.take o ~block)
    | k when k < 70 ->
      take_expired ~limit:(if Rng.int rng 3 = 0 then max_int else 1 + Rng.int rng 4)
    | k when k < 78 -> check "oldest" (found (fun () -> WB.oldest_exn wb) = O.oldest o)
    | k when k < 86 ->
      check "next_deadline"
        (found (fun () -> WB.next_deadline_exn wb) = O.next_deadline o)
    | k when k < 87 -> check "drain" (WB.drain wb = O.drain o)
    | _ -> now := !now + (tick_ns * Rng.int rng 6));
    check "size" (WB.size wb = O.size o);
    check "pending_entries" (WB.pending_entries wb = O.pending_entries o);
    incr i
  done;
  check "counters"
    (WB.absorbed_writes wb = O.absorbed_writes o
    && WB.admitted_blocks wb = O.admitted_blocks o
    && WB.cancelled_blocks wb = O.cancelled_blocks o);
  !mismatch

let oracle_case name speed ~traces ~ops =
  Alcotest.test_case name speed (fun () ->
      for seed = 1 to traces do
        match oracle_mismatch ~seed ~ops with
        | None -> ()
        | Some what -> Alcotest.failf "differs from the oracle at %s" what
      done)

let suite =
  [
    Alcotest.test_case "default is Baker's config" `Quick test_default_config_is_baker;
    Alcotest.test_case "admit & absorb" `Quick test_admit_and_absorb;
    Alcotest.test_case "capacity pressure" `Quick test_capacity_pressure;
    Alcotest.test_case "zero capacity" `Quick test_zero_capacity_write_through;
    Alcotest.test_case "expiry order" `Quick test_expiry_order_and_timing;
    Alcotest.test_case "expiry limit" `Quick test_take_expired_limit;
    Alcotest.test_case "refresh on rewrite" `Quick test_refresh_on_rewrite;
    Alcotest.test_case "no-refresh variant" `Quick test_no_refresh_variant;
    Alcotest.test_case "remove cancels" `Quick test_remove_cancels;
    Alcotest.test_case "drain" `Quick test_drain;
    Alcotest.test_case "stale entries interleaved" `Quick test_stale_entries_interleaved;
    Alcotest.test_case "refresh does not leak queue entries" `Quick
      test_refresh_does_not_leak_queue_entries;
    QCheck_alcotest.to_alcotest prop_conservation;
    oracle_case "matches the oracle op for op" `Quick ~traces:300 ~ops:1000;
    oracle_case "matches the oracle, long traces" `Slow ~traces:3000 ~ops:3000;
  ]
