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

(* The two buffers driven through the same calls, and the first call on
   which they disagreed. *)
type pair = {
  wb : WB.t;
  o : O.t;
  seed : int;
  mutable now : int;  (* ns *)
  mutable op : int;
  mutable peak : int;  (* most queue entries held after an op *)
  mutable mismatch : string option;
}

let pair ~seed cfg =
  { wb = WB.create cfg; o = O.create cfg; seed; now = 0; op = 0; peak = 0; mismatch = None }

let check p what agree =
  if Option.is_none p.mismatch && not agree then
    p.mismatch <- Some (Printf.sprintf "seed %d, op %d: %s" p.seed p.op what)

let found f = match f () with v -> Some v | exception Not_found -> None

(* A write, evicting the oldest block through a peek while the buffer is
   full, as the manager does. *)
let rec write p block =
  let at = Time.of_ns p.now in
  let r = WB.write p.wb ~now:at ~block in
  check p "write" (r = O.write p.o ~now:at ~block);
  if r = WB.Needs_eviction && WB.capacity p.wb > 0 then begin
    let victim = found (fun () -> WB.oldest_exn p.wb) in
    check p "eviction peek" (victim = O.oldest p.o);
    match victim with
    | Some v ->
      check p "evict" (WB.take p.wb ~block:v = O.take p.o ~block:v);
      write p block
    | None -> ()
  end

(* How many blocks came out. *)
let take_expired p ~limit =
  let at = Time.of_ns p.now in
  let taken = expired ~limit p.wb ~now:at in
  check p "take_expired" (taken = O.take_expired ~limit p.o ~now:at);
  List.length taken

let next_deadline p =
  check p "next_deadline" (found (fun () -> WB.next_deadline_exn p.wb) = O.next_deadline p.o)

(* Ends every op: [size] and [pending_entries] must agree too. *)
let settle p =
  check p "size" (WB.size p.wb = O.size p.o);
  check p "pending_entries" (WB.pending_entries p.wb = O.pending_entries p.o);
  p.peak <- max p.peak (WB.pending_entries p.wb);
  p.op <- p.op + 1

let counters_agree p =
  check p "counters"
    (WB.absorbed_writes p.wb = O.absorbed_writes p.o
    && WB.admitted_blocks p.wb = O.admitted_blocks p.o
    && WB.cancelled_blocks p.wb = O.cancelled_blocks p.o)

(* [None], or the first mismatch of the trace seeded [seed]. *)
let oracle_mismatch ~seed ~ops =
  let rng = Rng.create ~seed in
  let capacity = if Rng.int rng 20 = 0 then 0 else 1 + Rng.int rng 8 in
  let nblocks = 2 + Rng.int rng 30 in
  let p =
    pair ~seed
      {
        WB.capacity_blocks = capacity;
        writeback_delay = Time.span_ns (tick_ns * Rng.int rng 8);
        refresh_on_rewrite = Rng.int rng 5 > 0;
      }
  in
  while p.op < ops && Option.is_none p.mismatch do
    let block = Rng.int rng nblocks in
    (match Rng.int rng 100 with
    | k when k < 40 -> write p block
    | k when k < 50 -> check p "remove" (WB.remove p.wb ~block = O.remove p.o ~block)
    | k when k < 55 -> check p "take" (WB.take p.wb ~block = O.take p.o ~block)
    | k when k < 70 ->
      ignore (take_expired p ~limit:(if Rng.int rng 3 = 0 then max_int else 1 + Rng.int rng 4))
    | k when k < 78 -> check p "oldest" (found (fun () -> WB.oldest_exn p.wb) = O.oldest p.o)
    | k when k < 86 -> next_deadline p
    | k when k < 87 -> check p "drain" (WB.drain p.wb = O.drain p.o)
    | _ -> p.now <- p.now + (tick_ns * Rng.int rng 6));
    settle p
  done;
  counters_agree p;
  p.mismatch

(* The traces above hold at most 8 blocks of at most 31 ids.  This one is
   the benchmark's scale and shape: Baker's 2,048-block buffer, and the
   manager-churn workload's rounds over an 8 MB card's 13,926 live blocks.
   Each simulated second, the writeback timer takes the expired blocks in
   batches of 16 and re-arms with a peek; then 96 same-instant Zipf(1.0)
   writes land, each followed by the re-arming peek.  Hot blocks are
   rewritten many times in an instant, so the queue grows to thousands of
   entries and compacts thousands at a time. *)
let churn_mismatch ~seed ~rounds =
  let rng = Rng.create ~seed in
  let zipf = Distribution.Zipf.create ~n:13_926 ~s:1.0 in
  let p = pair ~seed WB.default_config in
  let round = ref 0 in
  while !round < rounds && Option.is_none p.mismatch do
    p.now <- p.now + 1_000_000_000;
    while
      let taken = take_expired p ~limit:16 in
      next_deadline p;
      settle p;
      taken = 16
    do
      ()
    done;
    for _ = 1 to 96 do
      write p (Distribution.Zipf.sample zipf rng);
      next_deadline p;
      settle p
    done;
    incr round
  done;
  counters_agree p;
  check p "the queue never outgrew 2,048 entries" (p.peak > 2048);
  p.mismatch

let oracle_case name speed ~traces mismatch =
  Alcotest.test_case name speed (fun () ->
      for seed = 1 to traces do
        match mismatch ~seed with
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
    oracle_case "matches the oracle op for op" `Quick ~traces:300 (oracle_mismatch ~ops:1000);
    oracle_case "matches the oracle, long traces" `Slow ~traces:3000
      (oracle_mismatch ~ops:3000);
    oracle_case "matches the oracle at benchmark scale" `Quick ~traces:3
      (churn_mismatch ~rounds:300);
  ]
