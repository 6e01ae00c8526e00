open Sim

let make ?(nbanks = 2) ?(endurance = 5) ?(size_kib = 64) () =
  Device.Flash.create
    (Device.Flash.config ~nbanks ~endurance_override:endurance
       ~size_bytes:(size_kib * 1024) ())

(* The error a refused request raised, [None] when it completed. *)
let refused f =
  match f () with
  | (_ : Time.t) -> None
  | exception Device.Flash.Error e -> Some e

let t0 = Time.zero

(* A program whose header these tests do not read back. *)
let program f ~now ~sector ~bytes =
  Device.Flash.program f ~now ~sector ~bytes ~block:sector ~version:0 ~pos:(-1)

let test_geometry () =
  let f = make () in
  Alcotest.(check int) "sectors" 128 (Device.Flash.nsectors f);
  Alcotest.(check int) "banks" 2 (Device.Flash.nbanks f);
  Alcotest.(check int) "sectors per bank" 64 (Device.Flash.sectors_per_bank f);
  Alcotest.(check int) "sector bytes" 512 (Device.Flash.sector_bytes f);
  Alcotest.(check int) "bank of sector 0" 0 (Device.Flash.bank_of_sector f 0);
  Alcotest.(check int) "bank of sector 64" 1 (Device.Flash.bank_of_sector f 64);
  Alcotest.check_raises "sector out of range" (Invalid_argument "Flash.bank_of_sector")
    (fun () -> ignore (Device.Flash.bank_of_sector f 128))

let test_program_requires_erased_space () =
  let f = make () in
  ignore (program f ~now:t0 ~sector:0 ~bytes:512);
  (match refused (fun () -> program f ~now:t0 ~sector:0 ~bytes:1) with
  | Some Device.Flash.Overwrite_without_erase -> ()
  | None -> Alcotest.fail "overwrite allowed"
  | Some e -> Alcotest.failf "wrong error: %a" Device.Flash.pp_error e);
  (* Partial programming of remaining erased bytes is fine. *)
  let f2 = make () in
  ignore (program f2 ~now:t0 ~sector:0 ~bytes:200);
  ignore (program f2 ~now:t0 ~sector:0 ~bytes:312);
  Alcotest.(check int) "fully programmed" 512 (Device.Flash.programmed_bytes f2 ~sector:0)

(* A sector's header fields: block, version, position, and 1 if live. *)
let header f ~sector =
  Device.Flash.
    [
      header_block f ~sector;
      header_version f ~sector;
      header_pos f ~sector;
      Bool.to_int (header_live f ~sector);
    ]

let test_erase_recycles () =
  let f = make () in
  ignore (Device.Flash.program f ~now:t0 ~sector:3 ~bytes:512 ~block:7 ~version:12 ~pos:2);
  Alcotest.(check (list int)) "header stored" [ 7; 12; 2; 1 ] (header f ~sector:3);
  let busy = Device.Flash.bank_busy_until f ~bank:0 and meter = Device.Flash.meter f in
  let before = Device.Power.Meter.total_joules meter in
  Device.Flash.obsolete f ~sector:3;
  Alcotest.(check (list int)) "obsoleted in place" [ 7; 12; 2; 0 ] (header f ~sector:3);
  Alcotest.(check bool) "no bank time, no energy" true
    (Time.equal busy (Device.Flash.bank_busy_until f ~bank:0)
    && Device.Power.Meter.total_joules meter = before);
  ignore (Device.Flash.erase f ~now:t0 ~sector:3);
  Alcotest.(check int) "programmed reset" 0 (Device.Flash.programmed_bytes f ~sector:3);
  Alcotest.(check int) "erase counted" 1 (Device.Flash.erase_count f ~sector:3);
  Alcotest.(check (list int)) "erase wipes the header" [ -1; 0; -1; 0 ] (header f ~sector:3);
  ignore (program f ~now:t0 ~sector:3 ~bytes:512)

let test_wear_out () =
  let f = make ~endurance:3 () in
  for _ = 1 to 3 do
    ignore (Device.Flash.erase f ~now:t0 ~sector:0)
  done;
  Alcotest.(check bool) "bad after endurance erases" true (Device.Flash.is_bad f ~sector:0);
  (match refused (fun () -> Device.Flash.erase f ~now:t0 ~sector:0) with
  | Some Device.Flash.Bad_sector -> ()
  | _ -> Alcotest.fail "erase of bad sector should fail");
  (match refused (fun () -> Device.Flash.read f ~now:t0 ~sector:0 ~bytes:1) with
  | Some Device.Flash.Bad_sector -> ()
  | _ -> Alcotest.fail "read of bad sector should fail");
  Alcotest.(check int) "bad count" 1 (Device.Flash.bad_sectors f);
  Alcotest.(check int) "capacity shrinks" ((128 - 1) * 512)
    (Device.Flash.live_capacity_bytes f)

let test_timing_matches_spec () =
  let f = make () in
  let now = Time.of_ns 1_000 in
  let finish = Device.Flash.read f ~now ~sector:0 ~bytes:512 in
  (* 250ns fixed + 100ns/B * 512 = 51.45us *)
  Alcotest.(check int) "read latency" 51_450 (Time.span_to_ns (Time.diff finish now));
  let now2 = Time.of_ns 200_000 in
  let finish2 = program f ~now:now2 ~sector:1 ~bytes:512 in
  (* 4us + 10us/B*512 = 5.124ms *)
  Alcotest.(check int) "program latency" 5_124_000
    (Time.span_to_ns (Time.diff finish2 now2))

let test_bank_contention () =
  let f = make () in
  (* A program occupies bank 0; a read to bank 0 waits, bank 1 does not. *)
  (* Waits are read off the device totals: a read's own wait is the growth
     of [total_wait] across it. *)
  let wait_of f op =
    let before = Time.span_to_ns (Device.Flash.total_wait f) in
    let finish = op () in
    (finish, Time.span_to_ns (Device.Flash.total_wait f) - before)
  in
  let read_time =
    Time.span_to_ns (Device.Specs.access_time Device.Specs.intel_flash.f_read ~bytes:512)
  in
  let prog, prog_wait = wait_of f (fun () -> program f ~now:t0 ~sector:0 ~bytes:512) in
  let read_same, same_wait = wait_of f (fun () -> Device.Flash.read f ~now:t0 ~sector:1 ~bytes:512) in
  Alcotest.(check int) "program found the bank idle" 0 prog_wait;
  Alcotest.(check bool) "same-bank read waited" true (same_wait > 0);
  Alcotest.(check bool) "read starts after program" true
    (Time.to_ns prog <= Time.to_ns read_same - read_time);
  let _, other_wait = wait_of f (fun () -> Device.Flash.read f ~now:t0 ~sector:64 ~bytes:512) in
  Alcotest.(check int) "other bank no wait" 0 other_wait;
  Alcotest.(check bool) "wait accounted" true
    (Time.span_to_ns (Device.Flash.read_wait f) > 0)

let test_traffic_counters () =
  let f = make () in
  ignore (Device.Flash.read f ~now:t0 ~sector:0 ~bytes:100);
  ignore (program f ~now:t0 ~sector:0 ~bytes:200);
  ignore (Device.Flash.erase f ~now:t0 ~sector:0);
  Alcotest.(check int) "reads" 1 (Device.Flash.reads f);
  Alcotest.(check int) "programs" 1 (Device.Flash.programs f);
  Alcotest.(check int) "erases" 1 (Device.Flash.erases f);
  Alcotest.(check int) "bytes read" 100 (Device.Flash.bytes_read f);
  Alcotest.(check int) "bytes programmed" 200 (Device.Flash.bytes_programmed f);
  Device.Flash.reset_stats f;
  Alcotest.(check int) "stats reset" 0 (Device.Flash.reads f);
  Alcotest.(check int) "wear preserved" 1 (Device.Flash.erase_count f ~sector:0)

let test_bytes_bounds () =
  let f = make () in
  Alcotest.check_raises "oversized read" (Invalid_argument "Flash: bytes out of range")
    (fun () -> ignore (Device.Flash.read f ~now:t0 ~sector:0 ~bytes:513))

let counters f =
  [
    Device.Flash.reads f;
    Device.Flash.programs f;
    Device.Flash.erases f;
    Device.Flash.bytes_read f;
    Device.Flash.bytes_programmed f;
    Time.span_to_ns (Device.Flash.total_wait f);
    Time.span_to_ns (Device.Flash.read_wait f);
  ]

let joules m = Device.Power.Meter.(active_joules m, background_joules m)

(* [Array.reinsert_card] hands a factory-reset device to a fresh manager
   as a blank replacement card, so after the reset the device must be
   indistinguishable from a new one: wear, programmed bytes, headers, bank
   timelines, counters and meters all back to zero. *)
let test_factory_reset_is_fresh () =
  let used = make ~endurance:3 () in
  for _ = 1 to 3 do
    ignore (Device.Flash.erase used ~now:t0 ~sector:5)
  done;
  ignore (program used ~now:t0 ~sector:0 ~bytes:512);
  ignore (Device.Flash.program used ~now:t0 ~sector:64 ~bytes:300 ~block:9 ~version:4 ~pos:1);
  ignore (Device.Flash.program used ~now:t0 ~sector:66 ~bytes:300 ~block:9 ~version:5 ~pos:2);
  Device.Flash.obsolete used ~sector:66;
  ignore (Device.Flash.read used ~now:t0 ~sector:65 ~bytes:100);
  Device.Flash.charge_idle used (Time.span_s 1.0);
  Alcotest.(check bool) "worn before the reset" true (Device.Flash.is_bad used ~sector:5);
  Device.Flash.factory_reset used;
  (* The same reads, programs and erases from instant 0; a refused
     request finishes at -1. *)
  let drive f =
    let at ns op =
      match op (Time.of_ns ns) with
      | finish -> Time.to_ns finish
      | exception Device.Flash.Error _ -> -1
    in
    let finishes =
      [
        at 0 (fun now -> program f ~now ~sector:0 ~bytes:512);
        at 0 (fun now -> Device.Flash.read f ~now ~sector:1 ~bytes:512);
        at 0 (fun now ->
            Device.Flash.program f ~now ~sector:64 ~bytes:300 ~block:3 ~version:1 ~pos:0);
        at 10_000 (fun now -> Device.Flash.read f ~now ~sector:65 ~bytes:100);
        at 20_000 (fun now -> Device.Flash.erase f ~now ~sector:5);
        at 30_000 (fun now -> Device.Flash.erase f ~now ~sector:0);
        at 40_000 (fun now -> program f ~now ~sector:0 ~bytes:128);
      ]
    in
    Device.Flash.obsolete f ~sector:64;
    Device.Flash.charge_idle f (Time.span_s 0.5);
    finishes
  in
  let fresh = make ~endurance:3 () in
  let got = drive used and want = drive fresh in
  Alcotest.(check (list int)) "finish instants" want got;
  let per_sector g f = List.init (Device.Flash.nsectors f) (fun sector -> g f ~sector) in
  Alcotest.(check (list int)) "erase counts"
    (per_sector Device.Flash.erase_count fresh)
    (per_sector Device.Flash.erase_count used);
  Alcotest.(check (list int)) "programmed bytes"
    (per_sector Device.Flash.programmed_bytes fresh)
    (per_sector Device.Flash.programmed_bytes used);
  Alcotest.(check (list (list int))) "headers" (per_sector header fresh)
    (per_sector header used);
  Alcotest.(check int) "bad sectors" 0 (Device.Flash.bad_sectors used);
  Alcotest.(check (list int)) "counters" (counters fresh) (counters used);
  Alcotest.(check (pair (float 0.0) (float 0.0))) "meter joules"
    (joules (Device.Flash.meter fresh))
    (joules (Device.Flash.meter used))

(* Random interleavings never violate the page state machine. *)
let prop_state_machine =
  QCheck.Test.make ~name:"flash: programmed bytes never exceed sector size" ~count:100
    QCheck.(pair small_int (list_of_size (Gen.int_range 1 100) (pair (int_bound 7) (int_bound 600))))
    (fun (seed, ops) ->
      ignore seed;
      let f = make ~endurance:1000 ~size_kib:4 () in
      List.iter
        (fun (sector, bytes) ->
          let bytes = min bytes 512 in
          match program f ~now:t0 ~sector ~bytes with
          | _ | (exception Device.Flash.Error Device.Flash.Overwrite_without_erase) -> ()
          | exception Device.Flash.Error Device.Flash.Bad_sector -> ())
        ops;
      List.for_all
        (fun sector -> Device.Flash.programmed_bytes f ~sector <= 512)
        [ 0; 1; 2; 3; 4; 5; 6; 7 ])

let prop_erase_counts_monotone =
  QCheck.Test.make ~name:"flash: erase counts only grow" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 30) (int_bound 7))
    (fun sectors ->
      let f = make ~endurance:1_000 ~size_kib:4 () in
      let before = Array.init 8 (fun s -> Device.Flash.erase_count f ~sector:s) in
      List.iter (fun s -> ignore (Device.Flash.erase f ~now:t0 ~sector:s)) sectors;
      Array.for_all Fun.id
        (Array.init 8 (fun s -> Device.Flash.erase_count f ~sector:s >= before.(s))))

(* --- Oracle --------------------------------------------------------------

   The device against [Flash_oracle] (one mutable record per sector, the
   model it replaced), op for op on random traces over a few sectors in
   1 to 3 banks.  The endurance is 1 to 4 erases, so sectors wear out
   within a trace and later requests to them are refused.  Requests are
   issued at a clock that stands still for several ops at a time, so they
   queue behind busy banks.  The traces mix reads, programs of a few bytes
   to a whole sector (so overwrites are refused) with random headers, half
   of them full pages (position -1) and half delta records, [obsolete]s,
   erases, idle charges, [reset_stats] and [factory_reset], plus
   out-of-range sectors and byte counts.  After every op the outcome
   (finish instant, raised error or invalid argument), each sector's erase
   count, programmed bytes, bad bit and header fields, [any_bad] from
   each sector to the end, [bad_sectors], the counters and the meter's
   joules must agree. *)

module O = Flash_oracle

type outcome = Finished of int | Refused of Device.Flash.error | Invalid of string

let outcome f =
  match f () with
  | finish -> Finished (Time.to_ns finish)
  | exception Device.Flash.Error e -> Refused e
  | exception Invalid_argument msg -> Invalid msg

(* [None], or the first mismatch of the trace seeded [seed]. *)
let oracle_mismatch ~seed ~ops =
  let rng = Rng.create ~seed in
  let nbanks = 1 + Rng.int rng 3 in
  let cfg =
    Device.Flash.config ~nbanks
      ~endurance_override:(1 + Rng.int rng 4)
      ~size_bytes:(nbanks * (1 + Rng.int rng 4) * 512)
      ()
  in
  let f = Device.Flash.create cfg and o = O.create cfg in
  let nsectors = Device.Flash.nsectors f in
  let now = ref 0 in
  let mismatch = ref None in
  let i = ref 0 in
  let check what agree =
    if Option.is_none !mismatch && not agree then
      mismatch := Some (Printf.sprintf "seed %d, op %d: %s" seed !i what)
  in
  let op what dev orc =
    let at = Time.of_ns !now in
    check what (outcome (fun () -> dev at) = outcome (fun () -> orc at))
  in
  while !i < ops && Option.is_none !mismatch do
    (* One in 20 requests names the sector just past the end. *)
    let sector = if Rng.int rng 20 = 0 then nsectors else Rng.int rng nsectors in
    let bytes =
      match Rng.int rng 4 with
      | 0 -> 512
      | 1 -> 505 + Rng.int rng 10 (* 513 and 514 are out of range *)
      | _ -> Rng.int rng 200
    in
    (match Rng.int rng 100 with
    | k when k < 30 ->
      op "read"
        (fun now -> Device.Flash.read f ~now ~sector ~bytes)
        (fun now -> O.read o ~now ~sector ~bytes)
    | k when k < 60 ->
      let block = Rng.int rng 6 and version = Rng.int rng 1000 in
      let pos = if Rng.bool rng then -1 else Rng.int rng 4 in
      op "program"
        (fun now -> Device.Flash.program f ~now ~sector ~bytes ~block ~version ~pos)
        (fun now -> O.program o ~now ~sector ~bytes ~block ~version ~pos)
    | k when k < 65 ->
      let outcome g = match g () with () -> None | exception Invalid_argument m -> Some m in
      check "obsolete"
        (outcome (fun () -> Device.Flash.obsolete f ~sector)
        = outcome (fun () -> O.obsolete o ~sector))
    | k when k < 85 ->
      op "erase"
        (fun now -> Device.Flash.erase f ~now ~sector)
        (fun now -> O.erase o ~now ~sector)
    | k when k < 88 ->
      let d = Time.span_ns (1_000_000 * Rng.int rng 50) in
      Device.Flash.charge_idle f d;
      O.charge_idle o d
    | k when k < 91 ->
      Device.Flash.reset_stats f;
      O.reset_stats o
    | k when k < 93 ->
      Device.Flash.factory_reset f;
      O.factory_reset o
    | _ -> now := !now + (1_000_000 * Rng.int rng 40));
    for sector = 0 to nsectors - 1 do
      check "erase_count"
        (Device.Flash.erase_count f ~sector = O.erase_count o ~sector);
      check "programmed_bytes"
        (Device.Flash.programmed_bytes f ~sector = O.programmed_bytes o ~sector);
      check "is_bad" (Device.Flash.is_bad f ~sector = O.is_bad o ~sector);
      check "header_block"
        (Device.Flash.header_block f ~sector = O.header_block o ~sector);
      check "header_version"
        (Device.Flash.header_version f ~sector = O.header_version o ~sector);
      check "header_pos" (Device.Flash.header_pos f ~sector = O.header_pos o ~sector);
      check "header_live" (Device.Flash.header_live f ~sector = O.header_live o ~sector);
      check "any_bad"
        (Device.Flash.any_bad f ~sector ~count:(nsectors - sector)
        = List.exists (fun s -> O.is_bad o ~sector:s) (List.init (nsectors - sector) (( + ) sector)))
    done;
    check "bad_sectors" (Device.Flash.bad_sectors f = O.bad_sectors o);
    check "counters" (counters f = O.counters o);
    check "meter" (joules (Device.Flash.meter f) = joules (O.meter o));
    incr i
  done;
  !mismatch

let test_matches_oracle () =
  for seed = 1 to 300 do
    match oracle_mismatch ~seed ~ops:300 with
    | None -> ()
    | Some what -> Alcotest.failf "differs from the oracle at %s" what
  done

let suite =
  [
    Alcotest.test_case "geometry" `Quick test_geometry;
    Alcotest.test_case "erase-before-write" `Quick test_program_requires_erased_space;
    Alcotest.test_case "erase recycles" `Quick test_erase_recycles;
    Alcotest.test_case "wear out" `Quick test_wear_out;
    Alcotest.test_case "timing" `Quick test_timing_matches_spec;
    Alcotest.test_case "bank contention" `Quick test_bank_contention;
    Alcotest.test_case "traffic counters" `Quick test_traffic_counters;
    Alcotest.test_case "factory reset behaves like a fresh device" `Quick
      test_factory_reset_is_fresh;
    Alcotest.test_case "bounds" `Quick test_bytes_bounds;
    QCheck_alcotest.to_alcotest prop_state_machine;
    QCheck_alcotest.to_alcotest prop_erase_counts_monotone;
    Alcotest.test_case "matches the oracle op for op" `Quick test_matches_oracle;
  ]
