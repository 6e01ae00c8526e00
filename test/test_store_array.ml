(* The striped multi-card array: placement arithmetic, the shared front
   cache's counting contract, byte-identity of the one-card paths, and
   crash recovery of the global allocation cursor. *)
open Sim

(* --- Striping arithmetic. --------------------------------------------------- *)

let policies =
  [
    Storage.Striping.Round_robin { strip_blocks = 1 };
    Storage.Striping.Round_robin { strip_blocks = 3 };
    Storage.Striping.Round_robin { strip_blocks = 4 };
    Storage.Striping.Round_robin { strip_blocks = 16 };
  ]

(* Replay the allocation order and keep per-card counts: [local_of] must
   be the running count for the block's card (dense local handles),
   [locals_before] the count for any card, and [global_of] the exact
   inverse.  This is the whole contract crash recovery leans on. *)
let test_striping_dense_roundtrip () =
  List.iter
    (fun policy ->
      let name = Storage.Striping.policy_name policy in
      List.iter
        (fun ncards ->
          let counts = Array.make ncards 0 in
          for g = 0 to 1999 do
            let card = Storage.Striping.card_of policy ~ncards ~block:g in
            if card < 0 || card >= ncards then
              Alcotest.failf "%s/%d: block %d routed to card %d" name ncards g card;
            for c = 0 to ncards - 1 do
              Alcotest.(check int)
                (Printf.sprintf "%s/%d: locals_before card %d at %d" name ncards c g)
                counts.(c)
                (Storage.Striping.locals_before policy ~ncards ~card:c g)
            done;
            let local = Storage.Striping.local_of policy ~ncards ~block:g in
            Alcotest.(check int)
              (Printf.sprintf "%s/%d: local of %d dense" name ncards g)
              counts.(card) local;
            Alcotest.(check int)
              (Printf.sprintf "%s/%d: global_of inverts %d" name ncards g)
              g
              (Storage.Striping.global_of policy ~ncards ~card ~local);
            counts.(card) <- counts.(card) + 1
          done)
        [ 1; 2; 3; 4; 5 ])
    policies

let test_striping_spreads_strips () =
  (* Round-robin with strip [s]: [s] consecutive handles per card, then
     the next card; one full stripe touches every card exactly once. *)
  let policy = Storage.Striping.Round_robin { strip_blocks = 4 } in
  let cards =
    List.init 24 (fun g -> Storage.Striping.card_of policy ~ncards:3 ~block:g)
  in
  Alcotest.(check (list int)) "strips rotate"
    [ 0; 0; 0; 0; 1; 1; 1; 1; 2; 2; 2; 2; 0; 0; 0; 0; 1; 1; 1; 1; 2; 2; 2; 2 ]
    cards

let test_striping_validate () =
  let ok p ncards =
    match Storage.Striping.validate p ~ncards with
    | Ok () -> true
    | Error _ -> false
  in
  Alcotest.(check bool) "valid" true
    (ok (Storage.Striping.Round_robin { strip_blocks = 4 }) 2);
  Alcotest.(check bool) "zero cards" false
    (ok (Storage.Striping.Round_robin { strip_blocks = 1 }) 0);
  Alcotest.(check bool) "zero strip" false
    (ok (Storage.Striping.Round_robin { strip_blocks = 0 }) 2);
  Alcotest.(check bool) "parity wants two cards" false
    (ok (Storage.Striping.Parity { strip_blocks = 2; rotate = true }) 1);
  Alcotest.(check bool) "parity over two cards" true
    (ok (Storage.Striping.Parity { strip_blocks = 2; rotate = true }) 2)

(* Hand-checked parity geometry at n=3, s=2 — the worked example from
   DESIGN.md, pinned so a placement regression reads as arithmetic, not
   as a property-test shrink. *)
let test_parity_placement () =
  let cards p n =
    List.init n (fun g -> Storage.Striping.card_of p ~ncards:3 ~block:g)
  in
  let fixed = Storage.Striping.Parity { strip_blocks = 2; rotate = false } in
  Alcotest.(check (list int)) "RAID-4 shape: data never on the last card"
    [ 0; 0; 1; 1; 0; 0; 1; 1; 0; 0; 1; 1 ] (cards fixed 12);
  List.iter
    (fun g ->
      let pc = Storage.Striping.parity_card fixed ~ncards:3 ~block:g in
      Alcotest.(check int) "fixed parity pinned on card N-1" 2 pc;
      (* The parity block sits at the data's local: that local's parity
         card is this row's. *)
      Alcotest.(check int) "parity local row-aligned with the data" pc
        (Storage.Striping.parity_card_of_local fixed ~ncards:3
           ~local:(Storage.Striping.local_of fixed ~ncards:3 ~block:g)))
    (List.init 12 Fun.id);
  let rot = Storage.Striping.Parity { strip_blocks = 2; rotate = true } in
  Alcotest.(check (list int)) "RAID-5 shape: data steps around the parity card"
    [ 0; 0; 1; 1; 0; 0; 2; 2; 1; 1; 2; 2 ] (cards rot 12);
  Alcotest.(check (list int)) "parity card walks backwards per stripe"
    [ 2; 1; 0; 2; 1; 0 ]
    (List.init 6 (fun k ->
         Storage.Striping.parity_card_of_local rot ~ncards:3 ~local:(2 * k)));
  (* Parity slots have no client handle: the inverse refuses them. *)
  Alcotest.(check bool) "global_of raises on a parity slot" true
    (match Storage.Striping.global_of rot ~ncards:3 ~card:2 ~local:0 with
    | exception Invalid_argument _ -> true
    | (_ : int) -> false)

(* The roundtrip replay as a property over random geometry, parity
   included: model the eager parity-strip allocation exactly as the
   array performs it, and every closed form must agree with the replay
   at every step. *)
let striping_arbitrary =
  let policy_gen =
    QCheck.Gen.oneof
      [
        QCheck.Gen.map
          (fun s -> Storage.Striping.Round_robin { strip_blocks = s })
          (QCheck.Gen.int_range 1 8);
        QCheck.Gen.return (Storage.Striping.Round_robin { strip_blocks = 1 });
        QCheck.Gen.map2
          (fun s rotate -> Storage.Striping.Parity { strip_blocks = s; rotate })
          (QCheck.Gen.int_range 1 8) QCheck.Gen.bool;
      ]
  in
  QCheck.make
    ~print:(fun (p, ncards, len) ->
      Printf.sprintf "%s, %d cards, %d blocks"
        (Storage.Striping.policy_name p)
        ncards len)
    QCheck.Gen.(triple policy_gen (int_range 2 5) (int_range 1 400))

let striping_replay_property (policy, ncards, len) =
  let module S = Storage.Striping in
  (match S.validate policy ~ncards with
  | Ok () -> ()
  | Error msg -> QCheck.Test.fail_reportf "validate rejected: %s" msg);
  let counts = Array.make ncards 0 in
  for g = 0 to len - 1 do
    (* [locals_before g] describes the world before [g] is allocated —
       before even the parity strip its allocation would open. *)
    for c = 0 to ncards - 1 do
      if S.locals_before policy ~ncards ~card:c g <> counts.(c) then
        QCheck.Test.fail_reportf "locals_before card %d at g=%d: %d, replay says %d"
          c g
          (S.locals_before policy ~ncards ~card:c g)
          counts.(c)
    done;
    (match S.parity_prealloc policy ~ncards ~block:g with
    | Some (pc, first, n) ->
      if counts.(pc) <> first then
        QCheck.Test.fail_reportf
          "prealloc at g=%d expects local %d on card %d, replay has %d" g first pc
          counts.(pc);
      for pl = first to first + n - 1 do
        if S.min_global_cursor policy ~ncards ~card:pc ~local:pl <> g + 1 then
          QCheck.Test.fail_reportf "parity slot (%d,%d): wrong min cursor" pc pl;
        match S.global_of policy ~ncards ~card:pc ~local:pl with
        | exception Invalid_argument _ -> ()
        | g' ->
          QCheck.Test.fail_reportf "parity slot (%d,%d) claims global %d" pc pl g'
      done;
      counts.(pc) <- counts.(pc) + n
    | None -> ());
    let card = S.card_of policy ~ncards ~block:g in
    if card < 0 || card >= ncards then
      QCheck.Test.fail_reportf "g=%d routed to card %d" g card;
    let local = S.local_of policy ~ncards ~block:g in
    if local <> counts.(card) then
      QCheck.Test.fail_reportf "g=%d got local %d, replay says %d" g local
        counts.(card);
    if S.global_of policy ~ncards ~card ~local <> g then
      QCheck.Test.fail_reportf "global_of fails to invert g=%d" g;
    if S.min_global_cursor policy ~ncards ~card ~local <> g + 1 then
      QCheck.Test.fail_reportf "data slot (%d,%d): wrong min cursor" card local;
    (let pc = S.parity_card policy ~ncards ~block:g in
     match policy with
     | S.Parity _ ->
       if pc < 0 || pc >= ncards then
         QCheck.Test.fail_reportf "g=%d: parity card %d out of range" g pc;
       if pc = card then
         QCheck.Test.fail_reportf "g=%d landed on its own parity card" g;
       (* The parity block sits at the data's local [local]. *)
       if S.parity_card_of_local policy ~ncards ~local <> pc then
         QCheck.Test.fail_reportf "g=%d: parity local not row-aligned with %d" g local;
       (match S.global_of policy ~ncards ~card:pc ~local with
       | exception Invalid_argument _ -> ()
       | g' ->
         QCheck.Test.fail_reportf "g=%d: parity slot (%d,%d) claims global %d" g pc
           local g')
     | S.Round_robin _ ->
       if pc <> -1 then QCheck.Test.fail_reportf "g=%d: round-robin parity card %d" g pc);
    counts.(card) <- counts.(card) + 1
  done;
  true

let qcheck_striping_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"striping: random geometry replays (parity included)"
       ~count:300 striping_arbitrary striping_replay_property)

(* --- Front cache: the array's clean use of Storage.Buffer_cache. ----------- *)

module Bc = Storage.Buffer_cache

let front_cache ~capacity_blocks =
  Bc.create ~probe:"storage.front_cache" ~capacity_blocks

(* One logical access, as the contract counts it. *)
let touch c key = fst (Bc.find_or_insert c ~key ~dirty:false)

(* The array's insert: clean, so it never evicts a victim to write back. *)
let insert_clean c key =
  Alcotest.(check (list int)) "clean insert returns no victims" []
    (Bc.insert c ~key ~dirty:false)

let test_front_cache_contract () =
  let c = front_cache ~capacity_blocks:2 in
  Alcotest.(check bool) "miss on empty" true (touch c 1 = Bc.Miss);
  Alcotest.(check bool) "hit after insert" true (touch c 1 = Bc.Hit);
  ignore (touch c 2);
  (* 1 is MRU (hit refreshed it), 2 next: inserting 3 evicts... touch 1
     first so 2 is the LRU victim. *)
  ignore (touch c 1);
  ignore (touch c 3);
  Alcotest.(check bool) "LRU evicted" false (Bc.contains c ~key:2);
  Alcotest.(check bool) "MRU survives" true (Bc.contains c ~key:1);
  Alcotest.(check int) "size capped" 2 (Bc.size c);
  Alcotest.(check int) "hits counted once each" 2 (Bc.hits c);
  Alcotest.(check int) "misses counted once each" 3 (Bc.misses c);
  (* [insert] counts nothing, [forget] removes. *)
  insert_clean c 9;
  Alcotest.(check int) "insert counts no hit" 2 (Bc.hits c);
  Alcotest.(check int) "insert counts no miss" 3 (Bc.misses c);
  Alcotest.(check bool) "insert resident" true (Bc.contains c ~key:9);
  Bc.forget c ~key:9;
  Alcotest.(check bool) "invalidated" false (Bc.contains c ~key:9);
  (* [clear] drops residency but keeps the counters (crash semantics). *)
  Bc.clear c;
  Alcotest.(check int) "clear keeps counters" 3 (Bc.misses c);
  Alcotest.(check int) "clear drops residency" 0 (Bc.size c);
  Alcotest.(check bool) "cleared key misses" true (touch c 1 = Bc.Miss);
  Alcotest.(check int) "clean cache never writes back" 0 (Bc.writebacks c);
  Bc.reset_counters c;
  Alcotest.(check int) "reset zeroes hits" 0 (Bc.hits c);
  Alcotest.(check int) "reset zeroes misses" 0 (Bc.misses c)

let test_front_cache_zero_capacity () =
  let c = front_cache ~capacity_blocks:0 in
  insert_clean c 1;
  Alcotest.(check bool) "miss, always" true (touch c 1 = Bc.Miss);
  Alcotest.(check bool) "second lookup still a miss" true (touch c 1 = Bc.Miss);
  Alcotest.(check int) "nothing retained" 0 (Bc.size c);
  Alcotest.(check int) "both misses counted" 2 (Bc.misses c);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Buffer_cache.create: negative capacity") (fun () ->
      ignore (front_cache ~capacity_blocks:(-1)))

let test_front_cache_lookup_commits_nothing () =
  (* [find] is the read path's probe: a miss counts but must leave no
     residency behind — the entry is only inserted after the card read
     actually returns. *)
  let c = front_cache ~capacity_blocks:2 in
  Alcotest.(check bool) "miss on empty" true (Bc.find c ~key:7 = Bc.Miss);
  Alcotest.(check bool) "miss committed nothing" false (Bc.contains c ~key:7);
  Alcotest.(check bool) "still a miss" true (Bc.find c ~key:7 = Bc.Miss);
  Alcotest.(check int) "both misses counted" 2 (Bc.misses c);
  insert_clean c 7;
  Alcotest.(check bool) "hit once the read completed" true (Bc.find c ~key:7 = Bc.Hit);
  Alcotest.(check int) "hit counted" 1 (Bc.hits c);
  Alcotest.(check int) "insert itself uncounted" 2 (Bc.misses c)

(* --- One-card byte-identity: bare manager vs 1-card array vs Store. --------- *)

let mgr_cfg ~buffer_blocks =
  {
    Storage.Manager.default_config with
    Storage.Manager.segment_sectors = 8;
    buffer =
      {
        Storage.Write_buffer.capacity_blocks = buffer_blocks;
        writeback_delay = Time.span_ms 5.0;
        refresh_on_rewrite = true;
      };
  }

let mk_flash () =
  Device.Flash.create
    (Device.Flash.config ~nbanks:2 ~endurance_override:60 ~size_bytes:(128 * 1024) ())

let mk_dram () = Device.Dram.create ~size_bytes:Units.mib ~battery_backed:true ()

(* The same latency-observable op surface over Manager, Array, and Store,
   so one driver exercises all three. *)
type ops = {
  alloc : unit -> int;
  write : int -> float;
  read : int -> float;
  free : int -> unit;
  load_cold : int -> unit;
  flush : unit -> float;
}

let ops_of_manager m =
  {
    alloc = (fun () -> Storage.Manager.alloc m);
    write = (fun b -> Time.span_to_us (Storage.Manager.write_block m b));
    read = (fun b -> Time.span_to_us (Storage.Manager.read_block m b));
    free = (fun b -> Storage.Manager.free_block m b);
    load_cold = (fun b -> Storage.Manager.load_cold m b);
    flush = (fun () -> Time.span_to_us (Storage.Manager.flush_all m));
  }

let ops_of_array a =
  {
    alloc = (fun () -> Storage.Array.alloc a);
    write = (fun b -> Time.span_to_us (Storage.Array.write_block a b));
    read = (fun b -> Time.span_to_us (Storage.Array.read_block a b));
    free = (fun b -> Storage.Array.free_block a b);
    load_cold = (fun b -> Storage.Array.load_cold a b);
    flush = (fun () -> Time.span_to_us (Storage.Array.flush_all a));
  }

let ops_of_store s =
  {
    alloc = (fun () -> Storage.Store.alloc s);
    write = (fun b -> Time.span_to_us (Storage.Store.write_block s b));
    read = (fun b -> Time.span_to_us (Storage.Store.read_block s b));
    free = (fun b -> Storage.Store.free_block s b);
    load_cold = (fun b -> Storage.Store.load_cold s b);
    flush = (fun () -> Time.span_to_us (Storage.Store.flush_all s));
  }

(* A deterministic mixed workload; returns every observed latency in
   order, so two byte-identical paths produce equal lists. *)
let drive engine ops =
  let spans = ref [] in
  let push us = spans := us :: !spans in
  let blocks = Array.init 40 (fun _ -> ops.alloc ()) in
  Array.iteri (fun i b -> if i < 24 then ops.load_cold b else push (ops.write b)) blocks;
  Engine.run_until engine (Time.add (Engine.now engine) (Time.span_s 1.0));
  let state = ref 4242 in
  let next bound =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound
  in
  let freed = Array.make 40 false in
  for _ = 1 to 300 do
    let k = next 40 in
    match next 5 with
    | 0 | 1 -> if not freed.(k) then push (ops.write blocks.(k))
    | 2 -> if not freed.(k) then push (ops.read blocks.(k))
    | 3 ->
      if not freed.(k) && next 7 = 0 then begin
        ops.free blocks.(k);
        freed.(k) <- true
      end
    | _ ->
      Engine.run_until engine
        (Time.add (Engine.now engine) (Time.span_ms (float_of_int (1 + next 20))))
  done;
  push (ops.flush ());
  List.rev !spans

let test_one_card_array_is_byte_identical () =
  (* Bare manager vs a 1-card array (front cache off) vs Store.Single:
     same flash geometry, same op stream, every latency equal — the array
     layer adds nothing at [cards = 1]. *)
  let run mk_ops =
    let engine = Engine.create () in
    let ops = mk_ops ~engine ~flash:(mk_flash ()) ~dram:(mk_dram ()) in
    drive engine ops
  in
  let cfg = mgr_cfg ~buffer_blocks:8 in
  let manager_spans =
    run (fun ~engine ~flash ~dram ->
        ops_of_manager (Storage.Manager.create cfg ~engine ~flash ~dram))
  in
  let array_spans =
    run (fun ~engine ~flash ~dram ->
        ops_of_array
          (Storage.Array.create
             ~striping:(Storage.Striping.Round_robin { strip_blocks = 4 })
             cfg ~engine ~flashes:[| flash |] ~dram))
  in
  let store_spans =
    run (fun ~engine ~flash ~dram ->
        ops_of_store
          (Storage.Store.Single (Storage.Manager.create cfg ~engine ~flash ~dram)))
  in
  Alcotest.(check (list (float 0.0))) "1-card array == bare manager" manager_spans
    array_spans;
  Alcotest.(check (list (float 0.0))) "Store.Single == bare manager" manager_spans
    store_spans

(* --- Multi-card behavior. --------------------------------------------------- *)

let mk_array ?(front_cache_blocks = 0) ?(buffer_blocks = 8) ?(ncards = 2)
    ?(strip_blocks = 4) ?policy () =
  let engine = Engine.create () in
  let flashes = Array.init ncards (fun _ -> mk_flash ()) in
  let striping =
    match policy with
    | Some p -> p
    | None -> Storage.Striping.Round_robin { strip_blocks }
  in
  let a =
    Storage.Array.create ~front_cache_blocks ~striping (mgr_cfg ~buffer_blocks)
      ~engine ~flashes ~dram:(mk_dram ())
  in
  (engine, a)

let advance engine span = Engine.run_until engine (Time.add (Engine.now engine) span)

let test_multi_card_placement () =
  let engine, a = mk_array ~ncards:2 ~strip_blocks:4 () in
  Alcotest.(check int) "capacity sums cards"
    (2 * Storage.Manager.capacity_blocks (Storage.Array.manager a 0))
    (Storage.Array.capacity_blocks a);
  let blocks = Array.init 32 (fun _ -> Storage.Array.alloc a) in
  Array.iteri (fun g b -> Alcotest.(check int) "handles dense from zero" g b) blocks;
  Array.iter (fun b -> ignore (Storage.Array.write_block a b)) blocks;
  advance engine (Time.span_s 1.0);
  Array.iter
    (fun b ->
      let policy = Storage.Array.striping a in
      Alcotest.(check int)
        (Printf.sprintf "block %d on its policy card" b)
        (Storage.Striping.card_of policy ~ncards:2 ~block:b)
        (Storage.Array.card_of_block a b);
      Alcotest.(check bool)
        (Printf.sprintf "block %d flushed somewhere" b)
        true
        (Storage.Array.segment_of_block a b <> None))
    blocks;
  (* Each card's manager saw exactly its locals, densely allocated. *)
  for card = 0 to 1 do
    let m = Storage.Array.manager a card in
    let locals = List.sort compare (Storage.Manager.known_blocks m) in
    Alcotest.(check (list int))
      (Printf.sprintf "card %d locals dense" card)
      (List.init 16 Fun.id) locals
  done;
  (* Per-card traffic sums to the array's stats. *)
  let sum =
    (Storage.Array.card_stats a 0).Storage.Manager.client_writes
    + (Storage.Array.card_stats a 1).Storage.Manager.client_writes
  in
  Alcotest.(check int) "writes split across cards" 32 sum;
  Alcotest.(check int) "array stats sum the cards" 32
    (Storage.Array.stats a).Storage.Manager.client_writes

let test_front_cache_serves_hot_reads () =
  let engine, a = mk_array ~front_cache_blocks:4 ~ncards:2 () in
  let b = Storage.Array.alloc a in
  ignore (Storage.Array.write_block a b);
  advance engine (Time.span_s 1.0);
  (* First read misses (flash speed, handle becomes resident), the second
     hits at DRAM speed without touching the card. *)
  let miss = Time.span_to_us (Storage.Array.read_block a b) in
  let hit = Time.span_to_us (Storage.Array.read_block a b) in
  Alcotest.(check int) "one miss" 1 (Storage.Array.front_cache_misses a);
  Alcotest.(check int) "one hit" 1 (Storage.Array.front_cache_hits a);
  Alcotest.(check bool) "hit is faster than flash" true (hit < miss);
  let card_reads = (Storage.Array.card_stats a 0).Storage.Manager.client_reads
                   + (Storage.Array.card_stats a 1).Storage.Manager.client_reads in
  Alcotest.(check int) "hit never reached a card" 1 card_reads;
  (* But the array's summed stats still count it as a served read. *)
  Alcotest.(check int) "array counts both reads" 2
    (Storage.Array.stats a).Storage.Manager.client_reads;
  (* A rewrite invalidates the residency: the next read misses again. *)
  ignore (Storage.Array.write_block a b);
  advance engine (Time.span_s 1.0);
  ignore (Storage.Array.read_block a b);
  Alcotest.(check int) "rewrite invalidated the entry" 2
    (Storage.Array.front_cache_misses a);
  (* And a free drops it for good. *)
  let b2 = Storage.Array.alloc a in
  ignore (Storage.Array.write_block a b2);
  advance engine (Time.span_s 1.0);
  ignore (Storage.Array.read_block a b2);
  Storage.Array.free_block a b2;
  Alcotest.(check bool) "freed block no longer known" false
    (Storage.Array.block_exists a b2)

let test_crash_wipes_front_cache () =
  let engine, a = mk_array ~front_cache_blocks:4 ~ncards:2 () in
  let b = Storage.Array.alloc a in
  ignore (Storage.Array.write_block a b);
  advance engine (Time.span_s 1.0);
  ignore (Storage.Array.read_block a b);
  ignore (Storage.Array.read_block a b);
  Alcotest.(check int) "resident before the crash" 1 (Storage.Array.front_cache_hits a);
  let a', _span, _report = Storage.Array.crash_and_remount a in
  Alcotest.(check int) "capacity survives" 4 (Storage.Array.front_cache_capacity a');
  (* DRAM died: the first read after remount must miss again. *)
  let h0 = Storage.Array.front_cache_hits a' in
  let m0 = Storage.Array.front_cache_misses a' in
  ignore (Storage.Array.read_block a' b);
  Alcotest.(check int) "no hit from a dead cache" h0 (Storage.Array.front_cache_hits a');
  Alcotest.(check int) "post-crash read is a miss" (m0 + 1)
    (Storage.Array.front_cache_misses a')

let test_crash_realigns_card_cursors () =
  (* Cards can lose different numbers of never-flushed tail allocations.
     Strip 1, 2 cards: g4 (card 0) dies dirty in the buffer while the
     younger g5 (card 1) reaches flash — after the crash the recovered
     global cursor is 6, but card 0 only ever flushed 2 locals.  The
     remount must pad card 0's cursor ([reserve_blocks]) or the next
     stripe-0 allocation would collide. *)
  let engine, a = mk_array ~ncards:2 ~strip_blocks:1 ~buffer_blocks:8 () in
  let burst n =
    List.init n (fun _ ->
        let g = Storage.Array.alloc a in
        ignore (Storage.Array.write_block a g);
        g)
  in
  (match burst 4 with
  | [ 0; 1; 2; 3 ] -> ()
  | _ -> Alcotest.fail "unexpected allocation order");
  advance engine (Time.span_ms 50.0);
  let g4 = Storage.Array.alloc a in
  ignore (Storage.Array.write_block a g4);
  Storage.Array.free_block a g4;
  let g5 = Storage.Array.alloc a in
  ignore (Storage.Array.write_block a g5);
  advance engine (Time.span_ms 50.0);
  Alcotest.(check int) "g5 on card 1" 1 (Storage.Array.card_of_block a g5);
  let a', _span, report = Storage.Array.crash_and_remount a in
  Alcotest.(check int) "nothing was dirty at the crash" 0
    report.Storage.Manager.buffered_lost;
  List.iter
    (fun g ->
      Alcotest.(check bool)
        (Printf.sprintf "block %d recovered" g)
        true
        (Storage.Store.block_exists (Storage.Store.Striped a') g))
    [ 0; 1; 2; 3; 5 ];
  Alcotest.(check bool) "freed g4 stays gone" false
    (Storage.Array.block_exists a' g4);
  (* The first post-crash allocation: global 6 -> card 0, local 3.  With
     an unpadded cursor card 0 would hand out local 2 and the arithmetic
     placement would be violated (the array asserts this internally). *)
  let g6 = Storage.Array.alloc a' in
  Alcotest.(check int) "cursor resumed past every recovered handle" 6 g6;
  Alcotest.(check int) "fresh handle on card 0" 0 (Storage.Array.card_of_block a' g6);
  ignore (Storage.Array.write_block a' g6);
  ignore (Storage.Array.flush_all a');
  Alcotest.(check bool) "fresh handle is durable" true
    (Storage.Array.segment_of_block a' g6 <> None)

let test_raising_read_leaves_nothing_resident () =
  (* The old read path committed front-cache residency *before* asking
     the card, so a read that then raised left a poisoned entry behind
     and the next read of the dead handle "hit" at DRAM speed instead of
     raising.  Residency now commits only after the card read returns. *)
  let engine, a = mk_array ~front_cache_blocks:4 ~ncards:2 () in
  let b = Storage.Array.alloc a in
  ignore (Storage.Array.write_block a b);
  advance engine (Time.span_s 1.0);
  Storage.Array.free_block a b;
  let misses = Storage.Array.front_cache_misses a in
  let raises () =
    match Storage.Array.read_block a b with
    | exception Invalid_argument _ -> true
    | (_ : Time.span) -> false
  in
  Alcotest.(check bool) "read of a freed block raises" true (raises ());
  Alcotest.(check bool) "and keeps raising" true (raises ());
  Alcotest.(check int) "no cache traffic for dead handles" misses
    (Storage.Array.front_cache_misses a);
  Alcotest.(check int) "and certainly no hits" 0 (Storage.Array.front_cache_hits a)

(* --- Parity arrays: maintenance, degraded mode, rebuild. -------------------- *)

let parity ?(strip_blocks = 2) ?(rotate = true) () =
  Storage.Striping.Parity { strip_blocks; rotate }

let test_parity_maintains_stats () =
  let engine, a = mk_array ~ncards:3 ~policy:(parity ()) () in
  let blocks = Array.init 12 (fun _ -> Storage.Array.alloc a) in
  Array.iter (fun b -> ignore (Storage.Array.write_block a b)) blocks;
  advance engine (Time.span_s 1.0);
  (* Each card holds exactly its share: data locals plus the eagerly
     allocated parity strips. *)
  let policy = Storage.Array.striping a in
  for card = 0 to 2 do
    Alcotest.(check int)
      (Printf.sprintf "card %d holds its data and parity locals" card)
      (Storage.Striping.locals_before policy ~ncards:3 ~card 12)
      (List.length (Storage.Manager.known_blocks (Storage.Array.manager a card)))
  done;
  (* Client counters see client traffic only: the array's own parity
     programs and RMW reads are subtracted back out. *)
  Alcotest.(check int) "client writes" 12
    (Storage.Array.stats a).Storage.Manager.client_writes;
  Array.iter (fun b -> ignore (Storage.Array.read_block a b)) blocks;
  Alcotest.(check int) "client reads" 12
    (Storage.Array.stats a).Storage.Manager.client_reads;
  (* The namespace-visible gauge excludes the parity blocks. *)
  Alcotest.(check int) "live gauge counts data blocks only" 12
    ((Storage.Array.stats a).Storage.Manager.live_blocks
    + (Storage.Array.stats a).Storage.Manager.dirty_blocks);
  let ps0 = Storage.Array.parity_stats a in
  Alcotest.(check bool) "parity programs issued" true
    (ps0.Storage.Array.parity_writes > 0);
  (* Rewriting flushed data is the small-write penalty: read old data,
     read old parity, program both. *)
  Array.iter (fun b -> ignore (Storage.Array.write_block a b)) blocks;
  let ps1 = Storage.Array.parity_stats a in
  Alcotest.(check bool) "RMW reads old data and old parity" true
    (ps1.Storage.Array.parity_reads >= ps0.Storage.Array.parity_reads + 24);
  Alcotest.(check int) "client writes still count only the client's" 24
    (Storage.Array.stats a).Storage.Manager.client_writes;
  Alcotest.(check int) "no degraded traffic while healthy" 0
    ps1.Storage.Array.degraded_reads

let test_eject_degraded_reinsert_rebuild () =
  let engine, a = mk_array ~front_cache_blocks:4 ~ncards:3 ~policy:(parity ()) () in
  let blocks = Array.init 16 (fun _ -> Storage.Array.alloc a) in
  Array.iter (fun b -> ignore (Storage.Array.write_block a b)) blocks;
  advance engine (Time.span_s 1.0);
  (* Leave a little dirty data in the buffers, then yank a card without
     warning. *)
  ignore (Storage.Array.write_block a blocks.(0));
  ignore (Storage.Array.write_block a blocks.(5));
  let victim = 1 in
  let on_victim =
    Array.to_list blocks
    |> List.filter (fun b -> Storage.Array.card_of_block a b = victim)
  in
  Alcotest.(check bool) "the victim card holds data" true (on_victim <> []);
  let r = Storage.Array.eject_card ~surprise:true a ~card:victim in
  Alcotest.(check bool) "degraded" true (Storage.Array.health a = `Degraded victim);
  Alcotest.(check bool) "degraded blocks reported" true
    (r.Storage.Array.degraded_blocks > 0);
  (* Every block is still there and still readable: missing-card blocks
     reconstruct from the survivors. *)
  Array.iter
    (fun b ->
      Alcotest.(check bool)
        (Printf.sprintf "block %d survives the eject" b)
        true
        (Storage.Array.block_exists a b);
      ignore (Storage.Array.read_block a b))
    blocks;
  let ps = Storage.Array.parity_stats a in
  Alcotest.(check int) "missing-card reads went degraded"
    (List.length on_victim)
    ps.Storage.Array.degraded_reads;
  Alcotest.(check int) "and every one reconstructed"
    (List.length on_victim)
    ps.Storage.Array.reconstructed_reads;
  (* The array keeps taking writes — to missing-card blocks (folded into
     parity alone) and to fresh allocations, some of which route to the
     missing card. *)
  ignore (Storage.Array.write_block a blocks.(2));
  let fresh = Array.init 8 (fun _ -> Storage.Array.alloc a) in
  Array.iter (fun b -> ignore (Storage.Array.write_block a b)) fresh;
  advance engine (Time.span_s 1.0);
  Array.iter (fun b -> ignore (Storage.Array.read_block a b)) fresh;
  let ps = Storage.Array.parity_stats a in
  Alcotest.(check bool) "degraded writes folded into parity" true
    (ps.Storage.Array.degraded_writes > 0);
  (* Client counters stay clean right through: 16 + 2 + 1 + 8 writes. *)
  Alcotest.(check int) "client writes unpolluted by reconstruction" 27
    (Storage.Array.stats a).Storage.Manager.client_writes;
  (* A blank replacement card: background rebuild streams the contents
     back while the array stays usable, then health returns. *)
  Storage.Array.reinsert_card a ~card:victim;
  Alcotest.(check bool) "rebuilding" true
    (Storage.Array.health a = `Rebuilding victim);
  advance engine (Time.span_s 5.0);
  Alcotest.(check bool) "rebuild completed" true (Storage.Array.health a = `Healthy);
  let ps = Storage.Array.parity_stats a in
  Alcotest.(check bool) "blocks streamed back" true
    (ps.Storage.Array.rebuilt_blocks > 0);
  Alcotest.(check bool) "rebuild time recorded" true
    (ps.Storage.Array.last_rebuild <> None);
  Array.iter
    (fun b ->
      Alcotest.(check bool) (Printf.sprintf "block %d present" b) true
        (Storage.Array.block_exists a b);
      if Storage.Array.card_of_block a b = victim then
        Alcotest.(check bool)
          (Printf.sprintf "block %d durable on the fresh card" b)
          true
          (Storage.Array.segment_of_block a b <> None))
    (Array.append blocks fresh);
  (* Reads of the rebuilt card's blocks reach the card again. *)
  let reads_before =
    (Storage.Array.card_stats a victim).Storage.Manager.client_reads
  in
  ignore (Storage.Array.read_block a blocks.(2));
  Alcotest.(check int) "reads reach the fresh card" (reads_before + 1)
    (Storage.Array.card_stats a victim).Storage.Manager.client_reads

let test_degraded_crash_keeps_flushed_blocks () =
  (* Eject, then lose power: what parity made durable must come back.
     Every block here was flushed (data and parity) before the eject, so
     the remounted array still reaches all of them — and a replacement
     card arriving after the reboot rebuilds as usual. *)
  let engine, a = mk_array ~ncards:3 ~policy:(parity ()) () in
  let blocks = Array.init 12 (fun _ -> Storage.Array.alloc a) in
  Array.iter (fun b -> ignore (Storage.Array.write_block a b)) blocks;
  advance engine (Time.span_s 1.0);
  ignore (Storage.Array.eject_card ~surprise:true a ~card:2);
  let a', _span, _report = Storage.Array.crash_and_remount a in
  Alcotest.(check bool) "still degraded after the crash" true
    (Storage.Array.health a' = `Degraded 2);
  Array.iter
    (fun b ->
      Alcotest.(check bool)
        (Printf.sprintf "flushed block %d survives eject + crash" b)
        true
        (Storage.Array.block_exists a' b);
      ignore (Storage.Array.read_block a' b))
    blocks;
  Storage.Array.reinsert_card a' ~card:2;
  advance engine (Time.span_s 5.0);
  Alcotest.(check bool) "rebuilt after the reboot" true
    (Storage.Array.health a' = `Healthy)

let test_reinsert_empty_card_completes_immediately () =
  (* Regression: reinserting a card that never held striped data used to
     schedule a rebuild_step for zero slots, leaving the array stuck in
     [`Rebuilding] until an engine event fired for no work.  An empty
     rebuild must complete at reinsert time. *)
  let _engine, a = mk_array ~ncards:3 ~policy:(parity ()) () in
  let victim = 1 in
  ignore (Storage.Array.eject_card ~surprise:true a ~card:victim);
  Alcotest.(check bool) "degraded" true (Storage.Array.health a = `Degraded victim);
  Storage.Array.reinsert_card a ~card:victim;
  (* No engine time has passed: health must already be restored. *)
  Alcotest.(check bool) "healthy immediately, no engine run" true
    (Storage.Array.health a = `Healthy);
  let ps = Storage.Array.parity_stats a in
  Alcotest.(check int) "nothing streamed" 0 ps.Storage.Array.rebuilt_blocks;
  Alcotest.(check (option (float 0.0))) "zero-length rebuild recorded" (Some 0.0)
    (Option.map Time.span_to_s ps.Storage.Array.last_rebuild);
  (* The array is fully serviceable again. *)
  let b = Storage.Array.alloc a in
  ignore (Storage.Array.write_block a b);
  ignore (Storage.Array.flush_all a)

(* --- Machine-level: config plumbing and multi-card runs. -------------------- *)

let small_trace ~seed ~secs =
  Trace.Synth.generate Trace.Workloads.pim ~rng:(Rng.create ~seed)
    ~duration:(Time.span_s secs)

let test_machine_cards1_uses_single_path () =
  let machine = Ssmc.Machine.create (Ssmc.Config.solid_state ~flash_mb:2 ~seed:3 ()) in
  (match Ssmc.Machine.store machine with
  | Some (Storage.Store.Single _) -> ()
  | Some (Storage.Store.Striped _) -> Alcotest.fail "cards=1 must mount Store.Single"
  | None -> Alcotest.fail "solid-state machine has no store");
  Alcotest.(check bool) "manager accessor works" true
    (Ssmc.Machine.manager machine <> None);
  Alcotest.(check bool) "flash accessor works" true (Ssmc.Machine.flash machine <> None);
  Alcotest.(check int) "one card" 1 (Array.length (Ssmc.Machine.flashes machine))

let test_machine_four_cards_smoke () =
  let cfg =
    Ssmc.Config.solid_state ~flash_mb:2 ~cards:4
      ~striping:(Storage.Striping.Round_robin { strip_blocks = 8 })
      ~front_cache_blocks:64 ~seed:3 ()
  in
  let machine = Ssmc.Machine.create cfg in
  (match Ssmc.Machine.store machine with
  | Some (Storage.Store.Striped a) ->
    Alcotest.(check int) "four cards" 4 (Storage.Array.ncards a)
  | _ -> Alcotest.fail "cards=4 must mount Store.Striped");
  Alcotest.(check bool) "no single manager" true (Ssmc.Machine.manager machine = None);
  Alcotest.(check bool) "no single flash" true (Ssmc.Machine.flash machine = None);
  Alcotest.(check int) "per-card devices" 4 (Array.length (Ssmc.Machine.flashes machine));
  let trace = small_trace ~seed:7 ~secs:20.0 in
  Ssmc.Machine.preload machine trace.Trace.Synth.initial_files;
  let result = Ssmc.Machine.run machine trace.Trace.Synth.records in
  Alcotest.(check bool) "ops applied" true (result.Ssmc.Machine.ops_applied > 0);
  (match result.Ssmc.Machine.manager_stats with
  | Some stats ->
    Alcotest.(check bool) "writes reached the array" true
      (stats.Storage.Manager.client_writes > 0)
  | None -> Alcotest.fail "multi-card run must report summed stats");
  Alcotest.(check bool) "lifetime extrapolated over all cards" true
    (result.Ssmc.Machine.lifetime_years <> None);
  Alcotest.(check bool) "energy accounted" true (result.Ssmc.Machine.energy_j > 0.0);
  (* The workload actually spread: more than one card saw client writes. *)
  (match Ssmc.Machine.store machine with
  | Some (Storage.Store.Striped a) ->
    let busy_cards = ref 0 in
    for card = 0 to 3 do
      if (Storage.Array.card_stats a card).Storage.Manager.client_writes > 0 then
        incr busy_cards
    done;
    Alcotest.(check bool) "writes striped across cards" true (!busy_cards > 1)
  | _ -> ());
  match Fs.Memfs.check (Option.get (Ssmc.Machine.memfs machine)) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "fsck on the 4-card machine: %s" msg

let test_machine_four_cards_cold_fault () =
  let cfg =
    Ssmc.Config.solid_state ~flash_mb:2 ~cards:4 ~backup_wh:0.0 ~seed:11 ()
  in
  let machine = Ssmc.Machine.create cfg in
  let memfs = Option.get (Ssmc.Machine.memfs machine) in
  (match Fs.Memfs.mkdir memfs "/data" with
  | Ok _ | Error Fs.Fs_error.Eexist -> ()
  | Error e -> Alcotest.failf "mkdir: %s" (Fmt.str "%a" Fs.Fs_error.pp e));
  for i = 0 to 7 do
    let path = Printf.sprintf "/data/f%d" i in
    (match Fs.Memfs.create memfs path with
    | Ok _ | Error Fs.Fs_error.Eexist -> ()
    | Error e -> Alcotest.failf "create: %s" (Fmt.str "%a" Fs.Fs_error.pp e));
    match Fs.Memfs.write memfs path ~offset:0 ~bytes:2048 with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "write: %s" (Fmt.str "%a" Fs.Fs_error.pp e)
  done;
  let dirty =
    match Ssmc.Machine.store machine with
    | Some s -> (Storage.Store.stats s).Storage.Manager.dirty_blocks
    | None -> 0
  in
  let o = Ssmc.Machine.inject_fault machine Fault.Battery_depletion in
  Alcotest.(check bool) "cold restart" true o.Ssmc.Machine.cold_restart;
  Alcotest.(check int) "dirty counted across cards" dirty o.Ssmc.Machine.dirty_at_fault;
  Alcotest.(check bool) "loss bounded by the buffers" true
    (o.Ssmc.Machine.blocks_lost <= dirty);
  (match o.Ssmc.Machine.remount with
  | Some r ->
    Alcotest.(check int) "summed report matches" dirty r.Storage.Manager.buffered_lost
  | None -> Alcotest.fail "cold restart must carry a remount report");
  (* Every card came back behind a fresh striped store. *)
  (match Ssmc.Machine.store machine with
  | Some (Storage.Store.Striped _) -> ()
  | _ -> Alcotest.fail "remounted machine must still be striped");
  match Fs.Memfs.check (Option.get (Ssmc.Machine.memfs machine)) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "fsck after 4-card cold restart: %s" msg

let test_machine_card_eject_reinsert () =
  (* The acceptance story end to end: a 3-card parity machine loses a
     card without warning mid-life; every file stays readable (reads
     reconstruct), the namespace never notices, and a replacement card
     rebuilds back to full health under the same file system. *)
  let cfg =
    Ssmc.Config.solid_state ~flash_mb:2 ~cards:3
      ~striping:(Storage.Striping.Parity { strip_blocks = 4; rotate = true })
      ~front_cache_blocks:16 ~seed:5 ()
  in
  let machine = Ssmc.Machine.create cfg in
  let memfs = Option.get (Ssmc.Machine.memfs machine) in
  let engine = Ssmc.Machine.engine machine in
  (match Fs.Memfs.mkdir memfs "/data" with
  | Ok _ | Error Fs.Fs_error.Eexist -> ()
  | Error e -> Alcotest.failf "mkdir: %s" (Fmt.str "%a" Fs.Fs_error.pp e));
  for i = 0 to 11 do
    let path = Printf.sprintf "/data/f%d" i in
    (match Fs.Memfs.create memfs path with
    | Ok _ | Error Fs.Fs_error.Eexist -> ()
    | Error e -> Alcotest.failf "create: %s" (Fmt.str "%a" Fs.Fs_error.pp e));
    match Fs.Memfs.write memfs path ~offset:0 ~bytes:2048 with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "write: %s" (Fmt.str "%a" Fs.Fs_error.pp e)
  done;
  Engine.run_until engine (Time.add (Engine.now engine) (Time.span_s 1.0));
  let files () = List.map (fun (p, s, _) -> (p, s)) (Fs.Memfs.enumerate memfs) in
  let all_readable ctx =
    List.iter
      (fun (path, size, _) ->
        match Fs.Memfs.read memfs path ~offset:0 ~bytes:size with
        | Ok _ -> ()
        | Error e ->
          Alcotest.failf "%s: %s unreadable: %s" ctx path
            (Fmt.str "%a" Fs.Fs_error.pp e))
      (Fs.Memfs.enumerate memfs)
  in
  let fsck ctx =
    match Fs.Memfs.check memfs with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "fsck %s: %s" ctx msg
  in
  all_readable "before the eject";
  fsck "before the eject";
  let before = files () in
  let o =
    Ssmc.Machine.inject_fault machine (Fault.Card_eject { card = 1; surprise = true })
  in
  Alcotest.(check bool) "parity carried the eject" true
    (o.Ssmc.Machine.survived_by = `Parity);
  Alcotest.(check int) "no blocks lost" 0 o.Ssmc.Machine.blocks_lost;
  Alcotest.(check bool) "no restart" false o.Ssmc.Machine.cold_restart;
  (match Ssmc.Machine.store machine with
  | Some s ->
    Alcotest.(check bool) "store degraded" true
      (Storage.Store.health s = `Degraded 1)
  | None -> Alcotest.fail "solid-state machine lost its store");
  Alcotest.(check bool) "namespace untouched" true (files () = before);
  all_readable "degraded";
  fsck "while degraded";
  let o2 = Ssmc.Machine.inject_fault machine (Fault.Card_reinsert { card = 1 }) in
  Alcotest.(check bool) "reinsert is a parity event" true
    (o2.Ssmc.Machine.survived_by = `Parity);
  Engine.run_until engine (Time.add (Engine.now engine) (Time.span_s 10.0));
  (match Ssmc.Machine.store machine with
  | Some s ->
    Alcotest.(check bool) "rebuild completed" true (Storage.Store.health s = `Healthy);
    (match Storage.Store.parity_stats s with
    | Some ps ->
      Alcotest.(check bool) "blocks rebuilt" true
        (ps.Storage.Array.rebuilt_blocks > 0)
    | None -> Alcotest.fail "parity array must report parity stats")
  | None -> Alcotest.fail "solid-state machine lost its store");
  all_readable "after the rebuild";
  fsck "after the rebuild"

let suite =
  [
    Alcotest.test_case "striping: dense local handles round-trip" `Quick
      test_striping_dense_roundtrip;
    Alcotest.test_case "striping: strips rotate across cards" `Quick
      test_striping_spreads_strips;
    Alcotest.test_case "striping: validation" `Quick test_striping_validate;
    Alcotest.test_case "striping: parity geometry by hand" `Quick
      test_parity_placement;
    qcheck_striping_roundtrip;
    Alcotest.test_case "front cache: counting contract" `Quick test_front_cache_contract;
    Alcotest.test_case "front cache: lookup commits nothing on a miss" `Quick
      test_front_cache_lookup_commits_nothing;
    Alcotest.test_case "front cache: zero capacity passes through" `Quick
      test_front_cache_zero_capacity;
    Alcotest.test_case "one-card array is byte-identical to the manager" `Quick
      test_one_card_array_is_byte_identical;
    Alcotest.test_case "multi-card placement and per-card stats" `Quick
      test_multi_card_placement;
    Alcotest.test_case "front cache serves hot cross-card reads" `Quick
      test_front_cache_serves_hot_reads;
    Alcotest.test_case "crash wipes the front cache" `Quick test_crash_wipes_front_cache;
    Alcotest.test_case "crash re-aligns uneven card cursors" `Quick
      test_crash_realigns_card_cursors;
    Alcotest.test_case "raising read leaves nothing resident" `Quick
      test_raising_read_leaves_nothing_resident;
    Alcotest.test_case "parity: maintenance stays out of client stats" `Quick
      test_parity_maintains_stats;
    Alcotest.test_case "parity: eject, degraded service, rebuild" `Quick
      test_eject_degraded_reinsert_rebuild;
    Alcotest.test_case "parity: crash while degraded keeps flushed blocks" `Quick
      test_degraded_crash_keeps_flushed_blocks;
    Alcotest.test_case "parity: reinsert of a never-written card is instant" `Quick
      test_reinsert_empty_card_completes_immediately;
    Alcotest.test_case "machine: card eject and reinsert under parity" `Quick
      test_machine_card_eject_reinsert;
    Alcotest.test_case "machine: cards=1 mounts the single-manager path" `Quick
      test_machine_cards1_uses_single_path;
    Alcotest.test_case "machine: 4-card run end to end" `Quick
      test_machine_four_cards_smoke;
    Alcotest.test_case "machine: 4-card cold fault" `Quick
      test_machine_four_cards_cold_fault;
  ]
