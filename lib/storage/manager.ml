(* The library now exports [Storage.Array] (the card array), which would
   otherwise shadow the stdlib inside the library. *)
module Array = Stdlib.Array
open Sim

let log_src = Logs.Src.create "ssmc.storage.manager" ~doc:"Physical storage manager"

module Log = (val Logs.src_log log_src)

exception Out_of_space

(* Probe handles are per-instance so each card of an array accounts under
   its own label prefix ([Banks.probe_label]); a standalone manager
   ([card = None]) keeps the historical ["storage.manager.*"] names, so
   single-card machines are observably unchanged.  Handles are cheap
   interned names — creating a record per manager costs a few words. *)
type probes = {
  p_writes : Probe.counter;
  p_reads : Probe.counter;
  p_flushed : Probe.counter;
  p_cleaned : Probe.counter;
  p_cold : Probe.counter;
  p_cleanings : Probe.counter;
  p_remounts : Probe.counter;
  p_busy_us : Probe.summary;
  (* Per-bank media-operation accounting, same label scheme as the
     per-card counters above so an array wrapping banked managers never
     duplicates a counter name. *)
  p_bank_programs : Probe.counter array;
  p_bank_erases : Probe.counter array;
}

let make_probes ?card ~nbanks () =
  let l m = Banks.probe_label ?card m in
  let lb b m = Banks.probe_label ?card ~bank:b m in
  {
    p_writes = Probe.counter (l "client_writes");
    p_reads = Probe.counter (l "client_reads");
    p_flushed = Probe.counter (l "blocks_flushed");
    p_cleaned = Probe.counter (l "blocks_cleaned");
    p_cold = Probe.counter (l "cold_loads");
    p_cleanings = Probe.counter (l "clean_ops");
    p_remounts = Probe.counter (l "remounts");
    p_busy_us = Probe.summary (l "busy_us");
    p_bank_programs = Array.init nbanks (fun b -> Probe.counter (lb b "programs"));
    p_bank_erases = Array.init nbanks (fun b -> Probe.counter (lb b "erases"));
  }

type config = {
  segment_sectors : int;
  buffer : Write_buffer.config;
  cleaner : Cleaner.policy;
  wear : Wear.policy;
  banking : Banks.policy;
  max_flush_batch : int;
  flush_spacing : Time.span;
  flush_watermark : float option;
  diff_log : Diff_log.config option;
}

let default_config =
  {
    segment_sectors = 32;
    buffer = Write_buffer.default_config;
    cleaner = Cleaner.Cost_benefit;
    wear = Wear.Dynamic;
    banking = Banks.Unified;
    max_flush_batch = 16;
    flush_spacing = Time.span_ms 100.0;
    flush_watermark = None;
    diff_log = None;
  }

(* Demand cleaning runs while fewer than [low_water] segments are free.
   [min_segments] keeps a flash big enough to clean at that mark with
   headroom to spare. *)
let low_water = 2
let min_segments = 5

(* [timer_at] with no timer armed: later than any deadline. *)
let no_timer = Time.of_ns max_int

type block = int

(* Where a block's current data lives: nowhere, because the handle is
   unknown ([Absent]: never allocated, or freed) or has no data yet
   ([Blank]); in the DRAM write buffer ([Buffered]); or in flash, in its
   home sector ([Flashed]).  Constant constructors, so a table of them
   is a flat array of immediates. *)
type where = Absent | Blank | Buffered | Flashed

(* The [Device.Flash.header_block] of a sector that holds no header. *)
let no_block = -1

type t = {
  cfg : config;
  card : int option;  (** Position in a [Storage.Array], [None] standalone. *)
  probes : probes;
  engine : Engine.t;
  flash : Device.Flash.t;
  dram : Device.Dram.t;
  segments : Segment.t array;
  (* Page-differential chain table, [None] when the policy is off — every
     consult is guarded on it, so the off path is byte-identical to the
     pre-diff manager. *)
  diff : Diff_log.t option;
  retired : bool array;
  segs_per_bank : int;
  buffer : Write_buffer.t;
  (* The block table, dense-keyed — block ids count up from zero — so two
     arrays indexed by block id: a lookup on the replay hot path is one
     bounds check and one load, and no state change allocates.  [home] is
     the sector of the block's newest durable header, -1 if none: a
     Flashed block's data, a chained block's base page.  It can hold a
     Buffered block's superseded copy too: a rewritten-but-dirty block
     keeps its old on-flash header live, so a crash rolls back to the
     previous version instead of losing the block outright.  Every state
     change goes through [set_state], which keeps [n_flashed]. *)
  mutable state : where array;
  mutable home : int array;
  mutable n_flashed : int;
  mutable next_block : block;
  mutable open_fresh : int option;
  mutable open_clean : int option;
  mutable open_cold : int option;
  (* The armed writeback timer and its instant: [Event_queue.none] and
     [no_timer] when none is armed. *)
  mutable timer : Event_queue.handle;
  mutable timer_at : Time.t;
  (* The writeback timer's callback, built once per manager by {!create}. *)
  mutable on_timer : Engine.t -> unit;
  (* Blocks one timer firing flushes, filled in deadline order. *)
  batch : block array;
  mutable cleaning : bool;  (** Re-entrancy guard for the cleaner. *)
  (* The version the next program's header carries: above every version
     on the flash, so a block's newer copy always wins at mount. *)
  mutable next_version : int;
  (* Incrementally maintained segment-state indexes and counters.  The
     index answers every allocation/cleaning decision in O(banks), or
     O(banks * nslots) for a cleaner's victim; the counters replace
     O(#segments) rescans in stats and the maybe_clean loop condition.
     [erase_total] and [erase_max], over every segment's erase count, are
     [Static]'s trigger; {!wear_evenness} holds them against the flash.
     The differential tests hold all of them against full scans of
     [segments]. *)
  idx : Seg_index.t;
  mutable n_retired : int;
  mutable erase_total : int;
  mutable erase_max : int;
  (* Counters. *)
  mutable c_writes : int;
  mutable c_reads : int;
  mutable c_flushed : int;
  mutable c_cleaned : int;
  mutable c_cold : int;
  mutable c_cleanings : int;
}

let block_bytes t = Device.Flash.sector_bytes t.flash
let nsegments t = Array.length t.segments
let bank_of_segment t i = i / t.segs_per_bank
let flash t = t.flash
let segments t = t.segments
let dram t = t.dram
let engine t = t.engine
let card t = t.card

(* Busy-time accounting: every client-visible operation observes the span
   it occupied the card (including bank-queue waits), so an array's
   per-card utilization falls out of one summary per card.  Guarded so a
   dormant probe does not cost a boxed float on every client op. *)
let note_busy t ~start ~finish =
  if Probe.metrics_enabled () then
    Probe.observe t.probes.p_busy_us (Time.span_to_us (Time.diff finish start))

(* Timeline spans carry the card position when the manager is part of an
   array; standalone managers emit exactly the historical span args. *)
let card_args t args =
  match t.card with
  | None -> args
  | Some c -> ("card", string_of_int c) :: args

(* The segment and slot of a sector: the inverse of [Segment.sector_of_slot]
   (banks may end in spare sectors no segment covers). *)
let seg_of_sector t s =
  let per_bank = Device.Flash.sectors_per_bank t.flash in
  ((s / per_bank) * t.segs_per_bank) + (s mod per_bank / t.cfg.segment_sectors)

let slot_of_sector t s =
  s mod Device.Flash.sectors_per_bank t.flash mod t.cfg.segment_sectors

let state_of t b =
  match if b >= 0 && b < Array.length t.state then t.state.(b) else Absent with
  | Absent -> invalid_arg (Printf.sprintf "Manager: unknown block %d" b)
  | w -> w

let set_state t b w =
  (match t.state.(b) with
  | Flashed -> t.n_flashed <- t.n_flashed - 1
  | Absent | Blank | Buffered -> ());
  (match w with Flashed -> t.n_flashed <- t.n_flashed + 1 | Absent | Blank | Buffered -> ());
  t.state.(b) <- w

(* Grown by doubling from 1024 entries as handles reach it: sized at
   creation, the table would cost a fresh machine words per flash
   sector. *)
let ensure_capacity t b =
  let cap = Array.length t.state in
  if b >= cap then begin
    let size = max (b + 1) (max 1024 (2 * cap)) in
    let state = Array.make size Absent and home = Array.make size (-1) in
    Array.blit t.state 0 state 0 cap;
    Array.blit t.home 0 home 0 cap;
    t.state <- state;
    t.home <- home
  end

(* A new Blank block under handle [b]. *)
let add_block t b =
  ensure_capacity t b;
  t.home.(b) <- -1;
  set_state t b Blank

let erase_count_of_segment t seg =
  (* Segments wear uniformly (whole-segment erases), so the first sector's
     count stands for the segment. *)
  Device.Flash.erase_count t.flash ~sector:(Segment.first_sector seg)

(* --- Index maintenance ----------------------------------------------------

   Every segment state transition flows through these hooks, keeping the
   per-bank free/victim structures and the O(1) counters in sync with the
   array the reference scans walk. *)

(* The policies, as the index's keys.  The free heaps' wear key: the
   erase count under wear-leveling allocation, 0 under first fit (so the
   least-worn pick is the lowest free id). *)
let wear_key t seg =
  match t.cfg.wear with
  | Wear.None_ -> 0
  | Wear.Dynamic | Wear.Static _ -> erase_count_of_segment t seg

(* The closed age heaps' key: the last-touched instant under cost-benefit,
   0 under greedy (so each heap's root is its lowest id). *)
let age_key t seg =
  match t.cfg.cleaner with
  | Cleaner.Greedy -> 0
  | Cleaner.Cost_benefit -> Time.to_ns (Segment.last_touched seg)

let free_index_add t seg =
  let i = Segment.id seg in
  Seg_index.add_free t.idx ~bank:(bank_of_segment t i) ~key:(wear_key t seg) ~id:i

let free_index_remove t seg =
  let i = Segment.id seg in
  Seg_index.remove_free t.idx ~bank:(bank_of_segment t i) ~key:(wear_key t seg) ~id:i

let closed_index_add t seg =
  let i = Segment.id seg in
  if not t.retired.(i) then
    Seg_index.add_closed t.idx ~bank:(bank_of_segment t i) ~id:i
      ~live:(Segment.live_count seg) ~erase:(erase_count_of_segment t seg)
      ~age:(age_key t seg)

let closed_index_remove t seg =
  let i = Segment.id seg in
  if Seg_index.mem_closed t.idx ~id:i then
    Seg_index.remove_closed t.idx ~bank:(bank_of_segment t i) ~id:i
      ~live:(Segment.live_count seg) ~erase:(erase_count_of_segment t seg)
      ~age:(age_key t seg)

(* After [Segment.kill seg ~slot]. *)
let note_kill t seg =
  let i = Segment.id seg in
  if Seg_index.mem_closed t.idx ~id:i then begin
    let live = Segment.live_count seg in
    Seg_index.closed_live_changed t.idx ~bank:(bank_of_segment t i) ~id:i
      ~old_live:(live + 1) ~new_live:live ~age:(age_key t seg)
  end

(* Rebuild every index and counter, the erase total and maximum included,
   from the segment array and the flash (manager creation and crash
   recovery, where the rebuild loop manipulates segments directly). *)
let rebuild_indexes t =
  Seg_index.clear t.idx;
  t.n_retired <- 0;
  t.erase_total <- 0;
  t.erase_max <- 0;
  Array.iteri
    (fun i seg ->
      let erases = erase_count_of_segment t seg in
      t.erase_total <- t.erase_total + erases;
      if erases > t.erase_max then t.erase_max <- erases;
      if t.retired.(i) then t.n_retired <- t.n_retired + 1
      else
        match Segment.state seg with
        | Segment.Free -> free_index_add t seg
        | Segment.Closed -> closed_index_add t seg
        | Segment.Open -> ())
    t.segments

(* Whether wear-out has claimed any of [seg]'s sectors.  A worn segment
   is retired: the device refuses to program a bad sector.  One device
   call per segment: asked per sector, a 64 MB mount took about 0.9 ms
   longer on a 2-core Xeon. *)
let worn flash seg =
  Device.Flash.any_bad flash ~sector:(Segment.first_sector seg) ~count:(Segment.nslots seg)

(* A manager without its timer callback, its block table or its segments'
   contents, which {!create} below adds from the flash.  Segments the
   flash already wore out are retired from the start. *)
let make ?card cfg ~engine ~flash ~dram =
  if cfg.segment_sectors <= 0 then invalid_arg "Manager.create: segment_sectors <= 0";
  if cfg.segment_sectors > Device.Flash.sectors_per_bank flash then
    invalid_arg "Manager.create: segment does not fit in a bank";
  (match Banks.validate cfg.banking ~nbanks:(Device.Flash.nbanks flash) with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Manager.create: " ^ msg));
  (match cfg.diff_log with
  | Some d when d.Diff_log.delta_bytes > Device.Flash.sector_bytes flash ->
    invalid_arg "Manager.create: diff_log delta_bytes exceed a sector"
  | Some _ | None -> ());
  let nbanks = Device.Flash.nbanks flash in
  let segs_per_bank = Device.Flash.sectors_per_bank flash / cfg.segment_sectors in
  if segs_per_bank < 1 then invalid_arg "Manager.create: bank smaller than a segment";
  let nsegments = nbanks * segs_per_bank in
  if nsegments < min_segments then
    invalid_arg "Manager.create: flash too small for the cleaning watermarks";
  let segments =
    Array.init nsegments (fun i ->
        let bank = i / segs_per_bank in
        let index_in_bank = i mod segs_per_bank in
        let first_sector =
          (bank * Device.Flash.sectors_per_bank flash)
          + (index_in_bank * cfg.segment_sectors)
        in
        Segment.create ~id:i ~first_sector ~nslots:cfg.segment_sectors)
  in
  let t =
    {
      cfg;
      card;
      probes = make_probes ?card ~nbanks ();
      engine;
      flash;
      dram;
      segments;
      diff = Option.map Diff_log.create cfg.diff_log;
      retired = Array.map (worn flash) segments;
      segs_per_bank;
      buffer = Write_buffer.create cfg.buffer;
      state = [||];
      home = [||];
      n_flashed = 0;
      next_block = 0;
      open_fresh = None;
      open_clean = None;
      open_cold = None;
      timer = Event_queue.none;
      timer_at = no_timer;
      on_timer = ignore;
      batch = Array.make (max 0 cfg.max_flush_batch) 0;
      cleaning = false;
      next_version = 0;
      idx = Seg_index.create ~nbanks ~nsegments ~nslots:cfg.segment_sectors;
      n_retired = 0;
      erase_total = 0;
      erase_max = 0;
      c_writes = 0;
      c_reads = 0;
      c_flushed = 0;
      c_cleaned = 0;
      c_cold = 0;
      c_cleanings = 0;
    }
  in
  t

let free_segment_count t = Seg_index.free_count t.idx
let capacity_blocks t = (nsegments t - t.n_retired) * t.cfg.segment_sectors

let kill_sector t sector =
  let s = t.segments.(seg_of_sector t sector) in
  Segment.kill s ~slot:(slot_of_sector t sector);
  note_kill t s

(* Worn segments are retired before reuse, so the device refusing a
   read or program is a bug. *)
let device_failure e =
  Fmt.failwith "Manager: unexpected flash failure: %a" Device.Flash.pp_error e

let flash_read t ~now ~sector ~bytes =
  try Device.Flash.read t.flash ~now ~sector ~bytes
  with Device.Flash.Error e -> device_failure e

(* Every program carries its sector's header (16 bytes of the program):
   a live header for [block] at the next version, whose [pos] is -1 for a
   full page and a delta record's position in its block's chain. *)
let flash_program t ~now ~sector ~bytes ~block ~pos =
  let version = t.next_version in
  t.next_version <- version + 1;
  try Device.Flash.program t.flash ~now ~sector ~bytes ~block ~version ~pos
  with Device.Flash.Error e -> device_failure e

(* Clear a block's superseded header's live bit in place — a bit-clear
   that rides along with programs already charged, so it costs no bank
   time — if the header still exists and still belongs to this block
   (cleaning may have erased the sector and a later program reused it for
   someone else).  The header that supersedes it is on the flash first. *)
let obsolete_header t ~block ~hdr_sector =
  if hdr_sector >= 0 && Device.Flash.header_block t.flash ~sector:hdr_sector = block then
    Device.Flash.obsolete t.flash ~sector:hdr_sector

(* [sector] now holds [block]'s newest full page: it becomes the home,
   and the previous home's header is obsoleted — unless the previous home
   is [sector] itself: a dirty block's rollback copy can be erased by the
   cleaner and its sector reused for the block's next program.  Deltas
   leave the home alone: it is the chain's base (the rollback anchor),
   and a chain keeps base plus every delta live at once. *)
let set_home t ~block ~sector =
  if t.home.(block) <> sector then obsolete_header t ~block ~hdr_sector:t.home.(block);
  t.home.(block) <- sector

(* --- Free-segment picks --------------------------------------------------- *)

(* Per allowed bank, the root of one free heap; across banks, prefer the
   least-busy bank, then the wear policy's key, then the lowest id (ids
   ascend with banks, and each root is its bank's lowest tied id) — the
   tie-breaking of the reference scan over the least-busy bank's free
   segments. *)
let pick_free t ~purpose ~restrict =
  let nbanks = Device.Flash.nbanks t.flash in
  (* Under Static wear leveling, cold data (cleaner output and cold
     loads) parks on the most-worn free segment; everything else takes the
     least-worn (or first-fit, where keys are constant 0). *)
  let want_most_worn =
    match (t.cfg.wear, purpose) with
    | Wear.Static _, (Banks.Clean_out | Banks.Cold_load) -> true
    | _ -> false
  in
  let best_id = ref (-1) in
  let best_key = ref 0 in
  let best_busy = ref Time.zero in
  for bank = 0 to nbanks - 1 do
    let id =
      if want_most_worn then Seg_index.most_worn_free t.idx ~bank
      else Seg_index.least_worn_free t.idx ~bank
    in
    if id >= 0 && ((not restrict) || Banks.allowed t.cfg.banking ~nbanks purpose ~bank)
    then begin
      let key = wear_key t t.segments.(id) in
      let busy = Device.Flash.bank_busy_until t.flash ~bank in
      if
        !best_id < 0
        || Time.( < ) busy !best_busy
        || Time.equal busy !best_busy
           && (if want_most_worn then key > !best_key else key < !best_key)
      then begin
        best_id := id;
        best_key := key;
        best_busy := busy
      end
    end
  done;
  if !best_id < 0 then None else Some t.segments.(!best_id)

(* --- Victim selection ----------------------------------------------------- *)

(* A due wear-leveling relocation, then the cleaner's pick: a segment id,
   -1 for none. *)
let select_victim t ~now ~purpose =
  let nbanks = Device.Flash.nbanks t.flash in
  (* A victim comes from the banks [first_bank] up to [end_bank]: every
     bank when no purpose is given. *)
  let first_bank =
    match purpose with None -> 0 | Some p -> Banks.first_bank t.cfg.banking p
  in
  let end_bank =
    match purpose with None -> nbanks | Some p -> Banks.end_bank t.cfg.banking ~nbanks p
  in
  let relocation =
    match t.cfg.wear with
    | Wear.None_ | Wear.Dynamic -> -1
    | Wear.Static { spread_threshold } ->
      if
        Wear.spread_exceeds ~max_erases:t.erase_max ~total_erases:t.erase_total
          ~segments:(nsegments t) ~spread_threshold
      then
        Seg_index.coldest_closed t.idx ~first_bank ~end_bank
      else -1
  in
  if relocation >= 0 then relocation
  else
    match t.cfg.cleaner with
    | Cleaner.Greedy -> Seg_index.least_live_closed t.idx ~first_bank ~end_bank
    | Cleaner.Cost_benefit ->
      Seg_index.max_score_closed t.idx ~first_bank ~end_bank ~now_ns:(Time.to_ns now)

let next_free_segment t ~purpose ~restrict =
  Option.map Segment.id (pick_free t ~purpose ~restrict)

let next_victim t ~purpose =
  let v = select_victim t ~now:(Engine.now t.engine) ~purpose in
  if v < 0 then None else Some v

(* --- Log appends, segment acquisition, cleaning -------------------------- *)

(* Append [block] to the open segment [seg] and program its sector with
   [bytes] and the header at [pos] on the cursor: the one place the log
   grows, and so the one place segments fill, get touched, and turn
   Closed (where they become victim candidates).  Returns the sector. *)
let program_append t seg ~cursor ~block ~pos ~bytes =
  let slot = Segment.append seg ~block in
  Segment.touch seg ~at:(Engine.now t.engine);
  if Segment.state seg = Segment.Closed then closed_index_add t seg;
  let sector = Segment.sector_of_slot seg slot in
  cursor := flash_program t ~now:!cursor ~sector ~bytes ~block ~pos;
  Probe.incr t.probes.p_bank_programs.(bank_of_segment t (Segment.id seg));
  sector

let open_segment t = function
  | Banks.Fresh_write -> t.open_fresh
  | Banks.Clean_out -> t.open_clean
  | Banks.Cold_load -> t.open_cold

let set_open_segment t purpose seg =
  match purpose with
  | Banks.Fresh_write -> t.open_fresh <- seg
  | Banks.Clean_out -> t.open_clean <- seg
  | Banks.Cold_load -> t.open_cold <- seg

let rec ensure_open t ~purpose ~cursor =
  match open_segment t purpose with
  | Some i when Segment.state t.segments.(i) = Segment.Open -> t.segments.(i)
  | Some _ | None ->
    let seg = acquire t ~purpose ~cursor in
    set_open_segment t purpose (Some (Segment.id seg));
    seg

and acquire t ~purpose ~cursor =
  if not t.cleaning then maybe_clean t ~cursor;
  let choice =
    match pick_free t ~purpose ~restrict:true with
    | Some s -> Some s
    | None ->
      (* No free segment in the banks this purpose may use: try to recycle
         one there before polluting the other banks' partition. *)
      if (not t.cleaning) && clean_one t ~cursor ~purpose:(Some purpose) then
        pick_free t ~purpose ~restrict:true
      else None
  in
  let choice =
    match choice with
    | Some s -> Some s
    | None -> pick_free t ~purpose ~restrict:false
  in
  match choice with
  | Some seg ->
    free_index_remove t seg;
    Segment.open_ seg;
    Segment.touch seg ~at:(Engine.now t.engine);
    seg
  | None ->
    if t.cleaning then begin
      Log.err (fun m -> m "out of space (during cleaning)");
      raise Out_of_space
    end
    else begin
      (* One forced cleaning pass, then give up. *)
      if not (clean_one t ~cursor ~purpose:None) then begin
        Log.err (fun m ->
            m "out of space: %d flashed blocks, %d free segments" t.n_flashed
              (free_segment_count t));
        raise Out_of_space
      end;
      acquire t ~purpose ~cursor
    end

and maybe_clean t ~cursor =
  while free_segment_count t < low_water && clean_one t ~cursor ~purpose:None do
    ()
  done

and clean_one t ~cursor ~purpose =
  if t.cleaning then false
  else begin
    t.cleaning <- true;
    match clean_victim t ~cursor ~purpose with
    | cleaned ->
      t.cleaning <- false;
      cleaned
    | exception e ->
      t.cleaning <- false;
      raise e
  end

(* One cleaning pass, under [t.cleaning]: pick a victim, copy its live
   blocks out, erase it.  False when there is no victim. *)
and clean_victim t ~cursor ~purpose =
  let v = select_victim t ~now:(Engine.now t.engine) ~purpose in
  if v < 0 then begin
    Log.debug (fun m -> m "cleaner: no eligible victim");
    false
  end
  else begin
    let victim = t.segments.(v) in
    (* The victim leaves the candidate structures now; the copy-out
       kills below adjust only the live-block counter.  A copy-out that
       runs out of space puts it back, with the survivors it still holds. *)
    closed_index_remove t victim;
    (* A full victim frees nothing and is cleaned all the same: full
       segments are eligible and score 0 under cost-benefit, so one is
       picked only when every candidate is full, or when static wear
       leveling relocates it. *)
    t.c_cleanings <- t.c_cleanings + 1;
    Probe.incr t.probes.p_cleanings;
    let clean_start = !cursor in
    let live_in = Segment.live_count victim in
    (match copy_out t victim ~cursor with
    | () -> ()
    | exception e ->
      closed_index_add t victim;
      raise e);
    (* Erase the sectors that were programmed since the last erase. *)
    let erases_before = erase_count_of_segment t victim in
    let victim_bank = bank_of_segment t (Segment.id victim) in
    for slot = 0 to Segment.used_slots victim - 1 do
      let sector = Segment.sector_of_slot victim slot in
      match Device.Flash.erase t.flash ~now:!cursor ~sector with
      | finish ->
        cursor := finish;
        Probe.incr t.probes.p_bank_erases.(victim_bank)
      | exception Device.Flash.Error Device.Flash.Bad_sector -> ()
      | exception Device.Flash.Error e ->
        Fmt.failwith "Manager: erase failed: %a" Device.Flash.pp_error e
    done;
    let erases_after = erase_count_of_segment t victim in
    t.erase_total <- t.erase_total + erases_after - erases_before;
    if erases_after > t.erase_max then t.erase_max <- erases_after;
    Segment.reset_to_free victim;
    if worn t.flash victim then begin
      t.retired.(Segment.id victim) <- true;
      t.n_retired <- t.n_retired + 1;
      Log.warn (fun m ->
          m "segment %d retired (worn out); %d segments remain"
            (Segment.id victim)
            (Array.length t.segments - t.n_retired))
    end
    else free_index_add t victim;
    if Probe.timeline_enabled () then
      Probe.span ~name:"cleaner.pass" ~cat:"cleaner"
        ~args:
          (card_args t
             [
               ("segment", string_of_int (Segment.id victim));
               ("copied", string_of_int live_in);
             ])
        ~start:clean_start ~finish:!cursor ();
    true
  end

(* Copy [victim]'s survivors out to the clean-out segment.  A live slot
   holds either its block's home — the only copy, or a chain's base page,
   which stays live while the block sits dirty — and the copy becomes the
   new home, or, with diff logging on, one of the chain's delta records,
   which the chain table follows to its new sector. *)
and copy_out t victim ~cursor =
  for slot = 0 to Segment.used_slots victim - 1 do
    let b = Segment.block_at victim slot in
    if b >= 0 then begin
      let sector = Segment.sector_of_slot victim slot in
      let is_home = sector = t.home.(b) in
      let nbytes =
        match t.diff with
        | Some d when not is_home -> (Diff_log.config d).Diff_log.delta_bytes
        | Some _ | None -> block_bytes t
      in
      cursor := flash_read t ~now:!cursor ~sector ~bytes:nbytes;
      let out = ensure_open t ~purpose:Banks.Clean_out ~cursor in
      (match t.diff with
      | Some d when not is_home ->
        let pos = Diff_log.delta_pos d ~block:b ~sector in
        let out_sector = program_append t out ~cursor ~block:b ~pos ~bytes:nbytes in
        obsolete_header t ~block:b ~hdr_sector:sector;
        Diff_log.relocate_delta d ~block:b ~pos ~sector:out_sector
      | Some _ | None ->
        set_home t ~block:b
          ~sector:(program_append t out ~cursor ~block:b ~pos:(-1) ~bytes:nbytes));
      Segment.kill victim ~slot;
      note_kill t victim;
      t.c_cleaned <- t.c_cleaned + 1;
      Probe.incr t.probes.p_cleaned
    end
  done

(* Program one client/cold block at the head of the log, whole. *)
let append_full t ~purpose ~cursor b =
  let seg = ensure_open t ~purpose ~cursor in
  set_home t ~block:b
    ~sector:(program_append t seg ~cursor ~block:b ~pos:(-1) ~bytes:(block_bytes t));
  set_state t b Flashed

(* Program an overwrite as a delta record against the chain's base page
   (the block's home): one log slot, but only [delta_bytes] of program
   traffic.  Reads reassemble base + chain. *)
let append_delta t d ~cursor b =
  let seg = ensure_open t ~purpose:Banks.Fresh_write ~cursor in
  let pos = Diff_log.chain_length d ~block:b in
  let sector =
    program_append t seg ~cursor ~block:b ~pos
      ~bytes:(Diff_log.config d).Diff_log.delta_bytes
  in
  Diff_log.push_delta d ~block:b ~pos ~sector;
  Diff_log.note_delta_programmed d;
  set_state t b Flashed

(* Retire a block's chain: kill the base page's slot and every delta
   record's slot, obsolete the delta headers, and forget the chain.  The
   base header is the block's home; the caller supersedes it (merge) or
   obsoletes it (free). *)
let drop_chain t d ~block =
  kill_sector t t.home.(block);
  for i = 0 to Diff_log.chain_length d ~block - 1 do
    let sector = Diff_log.delta_sector d ~block i in
    kill_sector t sector;
    obsolete_header t ~block ~hdr_sector:sector
  done;
  Diff_log.drop d ~block

(* Read a chain's delta records in position order from [finish]: the
   reassembly a chained read or a merge pays after the base page. *)
let read_deltas t d ~block finish =
  let bytes = (Diff_log.config d).Diff_log.delta_bytes in
  let finish = ref finish in
  for i = 0 to Diff_log.chain_length d ~block - 1 do
    finish := flash_read t ~now:!finish ~sector:(Diff_log.delta_sector d ~block i) ~bytes
  done;
  !finish

(* Fold a chain back into a single full base page: read base + deltas
   (the reassembly cost), retire every chain slot and delta header, then
   program the merged page as a fresh full write.  Runs on the flush
   cursor right after the delta that tripped the threshold, so merges
   ride the writeback timer's pacing like any other flush work. *)
let merge_chain t d ~cursor b =
  cursor := flash_read t ~now:!cursor ~sector:t.home.(b) ~bytes:(block_bytes t);
  cursor := read_deltas t d ~block:b !cursor;
  (* Retire the chain before acquiring the output segment, so a cleaning
     pass the allocation may trigger never copies slots we are folding. *)
  drop_chain t d ~block:b;
  Diff_log.note_merge d;
  append_full t ~purpose:Banks.Fresh_write ~cursor b

(* The flush dispatch: a chained block's flush becomes a delta append
   (merging once over the threshold); everything else — first flushes,
   cold loads, the whole path with the policy off — programs full pages. *)
let append_block t ~purpose ~cursor b =
  match t.diff with
  | Some d when Diff_log.has_chain d ~block:b ->
    append_delta t d ~cursor b;
    if Diff_log.should_merge d ~block:b then merge_chain t d ~cursor b
  | Some _ | None -> append_full t ~purpose ~cursor b

(* Flush one client block to the log and count it.  A buffered block is
   read out of DRAM first; write-through programs straight from the
   client's write. *)
let flush_block t ~cursor ~buffered b =
  if buffered then ignore (Device.Dram.read t.dram ~bytes:(block_bytes t));
  append_block t ~purpose:Banks.Fresh_write ~cursor b;
  t.c_flushed <- t.c_flushed + 1;
  Probe.incr t.probes.p_flushed

(* --- Writeback timer ------------------------------------------------------ *)

let schedule_timer t ~at =
  t.timer <- Engine.schedule t.engine ~at t.on_timer;
  t.timer_at <- at

let cancel_timer t =
  Engine.cancel t.engine t.timer;
  t.timer <- Event_queue.none;
  t.timer_at <- no_timer

let rec arm_timer t =
  match Write_buffer.next_deadline_exn t.buffer with
  | exception Not_found -> ()
  | deadline ->
    if Time.( < ) deadline t.timer_at then begin
      Engine.cancel t.engine t.timer;
      schedule_timer t ~at:(Time.max deadline (Engine.now t.engine))
    end

and over_watermark t =
  match t.cfg.flush_watermark with
  | None -> false
  | Some w ->
    Write_buffer.capacity t.buffer > 0
    && float_of_int (Write_buffer.size t.buffer)
       >= w *. float_of_int (Write_buffer.capacity t.buffer)

(* Fill [t.batch] from index [n] with blocks whose deadline has passed, in
   deadline order, up to [max_flush_batch]; returns the new fill. *)
and take_expired t ~now n =
  if n >= t.cfg.max_flush_batch then n
  else
    match Write_buffer.take_expired_exn t.buffer ~now with
    | exception Not_found -> n
    | b ->
      t.batch.(n) <- b;
      take_expired t ~now (n + 1)

(* Capacity-threshold policy: above the watermark, fill the rest of the
   batch ahead of the deadlines, oldest first. *)
and take_over_watermark t n =
  if over_watermark t && n < t.cfg.max_flush_batch then
    match Write_buffer.oldest_exn t.buffer with
    | b when Write_buffer.take t.buffer ~block:b ->
      t.batch.(n) <- b;
      take_over_watermark t (n + 1)
    | _ | (exception Not_found) -> n
  else n

and timer_fired t =
  t.timer <- Event_queue.none;
  t.timer_at <- no_timer;
  let now = Engine.now t.engine in
  let n = take_over_watermark t (take_expired t ~now 0) in
  let cursor = ref now in
  for i = 0 to n - 1 do
    flush_block t ~cursor ~buffered:true t.batch.(i)
  done;
  if n > 0 then note_busy t ~start:now ~finish:!cursor;
  if n > 0 && Probe.timeline_enabled () then
    Probe.span ~name:"write_buffer.flush_batch" ~cat:"storage"
      ~args:(card_args t [ ("blocks", string_of_int n) ])
      ~start:now ~finish:!cursor ();
  (* If a backlog remains, continue only after the device digested this
     batch and a spacing gap — pacing bounds how much bank time queued
     writeback can steal from foreground reads. *)
  match Write_buffer.next_deadline_exn t.buffer with
  | d when Time.( <= ) d now || over_watermark t ->
    schedule_timer t ~at:(Time.max (Time.add now t.cfg.flush_spacing) !cursor)
  | _ | (exception Not_found) -> arm_timer t

let block_exists t b =
  b >= 0
  && b < Array.length t.state
  && match t.state.(b) with Absent -> false | Blank | Buffered | Flashed -> true

(* --- Mount ------------------------------------------------------------------

   A manager's durable state is the headers on its flash, and every manager
   is built from them, host-side: a blank flash gives an empty manager. *)

(* Whether the header in [sector] names the copy of [block] the mounted
   state keeps: the block's home, or the record at its position in the
   block's chain. *)
let kept t ~block ~sector =
  match (Device.Flash.header_pos t.flash ~sector, t.diff) with
  | pos, _ when pos < 0 -> block_exists t block && t.home.(block) = sector
  | pos, Some d ->
    pos < Diff_log.chain_length d ~block && Diff_log.delta_sector d ~block pos = sector
  | _, None -> false

(* Appends were sequential, so each segment's programmed sectors are a
   prefix of its slots: slot them back in, and take each block's newest
   live full page as its home.  Headers obsoleted in place (superseded or
   deleted data) never come back.  With diff logging on, chain each
   block's live delta records in position order, the newest at each
   position, up to the first gap: a chain truncated there, or orphaned by
   a freed base, rolls the block back to its base plus that prefix, the
   allowance rollback-to-stale makes for a block that died dirty.  Every
   slot the mounted state does not keep is killed as stale.  Even a dead
   header pins its block id and version, so no later handle or version
   collides with it at the next mount. *)
let read_headers t =
  let flash = t.flash in
  let max_block = ref (-1) and max_version = ref (-1) and deltas = ref [] in
  for i = 0 to nsegments t - 1 do
    let seg = t.segments.(i) in
    let slot = ref 0 in
    while
      !slot < Segment.nslots seg
      && Device.Flash.header_block flash ~sector:(Segment.sector_of_slot seg !slot)
         <> no_block
    do
      let sector = Segment.sector_of_slot seg !slot in
      let block = Device.Flash.header_block flash ~sector in
      let version = Device.Flash.header_version flash ~sector in
      if !slot = 0 then Segment.open_ seg;
      ignore (Segment.append seg ~block : int);
      max_block := max !max_block block;
      max_version := max !max_version version;
      if Device.Flash.header_live flash ~sector then
        if Device.Flash.header_pos flash ~sector >= 0 then deltas := sector :: !deltas
        else if
          (not (block_exists t block))
          || Device.Flash.header_version flash ~sector:t.home.(block) < version
        then begin
          ensure_capacity t block;
          t.home.(block) <- sector;
          set_state t block Flashed
        end;
      incr slot
    done
  done;
  (match (t.diff, !deltas) with
  | Some d, (_ :: _ as deltas) ->
    (* By block, position, newest version first, then sector. *)
    let key sector =
      Device.Flash.
        ( header_block flash ~sector,
          header_pos flash ~sector,
          -header_version flash ~sector,
          sector )
    in
    List.iter
      (fun sector ->
        let block, pos, _, _ = key sector in
        if block_exists t block && Diff_log.chain_length d ~block = pos then begin
          if pos = 0 then Diff_log.begin_chain d ~block;
          Diff_log.push_delta d ~block ~pos ~sector
        end)
      (List.sort (fun a b -> compare (key a) (key b)) deltas)
  | _ -> ());
  for i = 0 to nsegments t - 1 do
    let seg = t.segments.(i) in
    for slot = 0 to Segment.used_slots seg - 1 do
      let sector = Segment.sector_of_slot seg slot in
      if not (kept t ~block:(Segment.block_at seg slot) ~sector) then Segment.kill seg ~slot
    done;
    if Segment.state seg = Segment.Open then Segment.close seg
  done;
  t.next_block <- !max_block + 1;
  t.next_version <- !max_version + 1;
  rebuild_indexes t

let create ?card cfg ~engine ~flash ~dram =
  let t = make ?card cfg ~engine ~flash ~dram in
  t.on_timer <- (fun _ -> timer_fired t);
  read_headers t;
  t

(* --- Client operations ---------------------------------------------------- *)

let alloc t =
  let b = t.next_block in
  t.next_block <- b + 1;
  add_block t b;
  b

let next_fresh_block t = t.next_block

let reserve_blocks t ~next =
  if next > t.next_block then t.next_block <- next

(* Recreate an empty (Blank) block under an already-reserved handle.  A
   striped array's rebuild path reserves the reinserted card's cursor in
   one jump ([reserve_blocks]), then revives exactly the handles the
   degraded bookkeeping says existed — gaps (freed blocks) stay absent. *)
let revive_block t b =
  if b < 0 || b >= t.next_block then
    invalid_arg
      (Printf.sprintf "Manager.revive_block: handle %d beyond the cursor %d" b
         t.next_block);
  if block_exists t b then
    invalid_arg (Printf.sprintf "Manager.revive_block: block %d already exists" b);
  add_block t b

(* The card is leaving the machine, or its power is gone: cancel the
   pending writeback timer and drop the buffer, so this manager can never
   program the device again.  Returns how many dirty blocks the drop
   lost. *)
let detach t =
  cancel_timer t;
  List.length (Write_buffer.drain t.buffer)

(* Flush one specific dirty block synchronously (eviction path). *)
let flush_now t ~cursor b =
  if Write_buffer.take t.buffer ~block:b then flush_block t ~cursor ~buffered:true b

(* Put the block in the buffer, evicting the oldest dirty block
   synchronously while the buffer is full; returns the client's cursor. *)
let rec admit t ~at ~cursor b =
  match Write_buffer.write t.buffer ~now:at ~block:b with
  | Write_buffer.Absorbed | Write_buffer.Admitted ->
    set_state t b Buffered;
    cursor
  | Write_buffer.Needs_eviction ->
    (* Full implies non-empty, so there is a victim. *)
    let cursor = ref cursor in
    flush_now t ~cursor (Write_buffer.oldest_exn t.buffer);
    admit t ~at ~cursor:!cursor b

let write_block_at t ~at b =
  let w = state_of t b in
  t.c_writes <- t.c_writes + 1;
  Probe.incr t.probes.p_writes;
  (match (w, t.diff) with
  | Flashed, None ->
    (* The copy is superseded; its header stays live as the rollback copy
       until the new data reaches flash. *)
    kill_sector t t.home.(b);
    set_state t b Blank
  | Flashed, Some d ->
    (* Keep the flash copy live: it becomes (or already is) the base page
       the overwrite will flush a delta against.  A crash before that
       flush rolls the block back to base + already-flushed deltas. *)
    if not (Diff_log.has_chain d ~block:b) then Diff_log.begin_chain d ~block:b
  | (Absent | Blank | Buffered), _ -> ());
  let dram_latency = Device.Dram.write t.dram ~bytes:(block_bytes t) in
  let finish =
    if Write_buffer.capacity t.buffer = 0 then begin
      (* Write-through: straight to flash; the client eats the program time. *)
      let cursor = ref (Time.add at dram_latency) in
      flush_block t ~cursor ~buffered:false b;
      !cursor
    end
    else begin
      let finish = admit t ~at ~cursor:(Time.add at dram_latency) b in
      (if over_watermark t then begin
         (* Pull the next flush forward to now. *)
         let now_t = Engine.now t.engine in
         if Time.( < ) now_t t.timer_at then begin
           Engine.cancel t.engine t.timer;
           schedule_timer t ~at:now_t
         end
       end);
      arm_timer t;
      finish
    end
  in
  note_busy t ~start:at ~finish;
  finish

let write_block t b =
  let now = Engine.now t.engine in
  Time.diff (write_block_at t ~at:now b) now

let read_block_at ~bytes t ~at b =
  let w = state_of t b in
  t.c_reads <- t.c_reads + 1;
  Probe.incr t.probes.p_reads;
  match w with
  | Absent | Blank | Buffered -> Time.add at (Device.Dram.read t.dram ~bytes)
  | Flashed ->
    let finish = flash_read t ~now:at ~sector:t.home.(b) ~bytes in
    (* Chain reassembly: the base page read above plus every delta record,
       cursor-threaded — the read-latency side of the diff-log trade. *)
    let finish =
      match t.diff with
      | Some d when Diff_log.has_chain d ~block:b ->
        Diff_log.note_reassembly d;
        read_deltas t d ~block:b finish
      | Some _ | None -> finish
    in
    note_busy t ~start:at ~finish;
    finish

let read_block ?bytes t b =
  let bytes = match bytes with Some n -> n | None -> block_bytes t in
  let now = Engine.now t.engine in
  Time.diff (read_block_at ~bytes t ~at:now b) now

let free_block t b =
  let w = state_of t b in
  (match w with
  | Buffered -> ignore (Write_buffer.remove t.buffer ~block:b)
  | Absent | Flashed | Blank -> ());
  (match (w, t.diff) with
  | _, Some d when Diff_log.has_chain d ~block:b ->
    (* The whole chain dies with the block: base page (live even while
       the block sat dirty) and every delta record and header. *)
    drop_chain t d ~block:b
  | Flashed, _ -> kill_sector t t.home.(b)
  | (Absent | Blank | Buffered), _ -> ());
  (* Deletion is durable: whatever header the block still has on flash —
     even a rollback copy left live while the block sat dirty — is
     obsoleted in place, so a crash cannot resurrect freed data. *)
  obsolete_header t ~block:b ~hdr_sector:t.home.(b);
  set_state t b Absent

let load_cold t b =
  (match state_of t b with
  | Blank -> ()
  | Absent | Buffered | Flashed -> invalid_arg "Manager.load_cold: block already has data");
  let cursor = ref (Engine.now t.engine) in
  append_block t ~purpose:Banks.Cold_load ~cursor b;
  t.c_cold <- t.c_cold + 1;
  Probe.incr t.probes.p_cold

let flush_all t =
  let now = Engine.now t.engine in
  let cursor = ref now in
  List.iter (flush_block t ~cursor ~buffered:true) (Write_buffer.drain t.buffer);
  if not (Time.equal !cursor now) then note_busy t ~start:now ~finish:!cursor;
  Time.diff !cursor now

(* --- Introspection -------------------------------------------------------- *)

type stats = {
  client_writes : int;
  client_reads : int;
  absorbed_writes : int;
  cancelled_blocks : int;
  blocks_flushed : int;
  blocks_cleaned : int;
  cold_loads : int;
  hot_retained : int;
  cleanings : int;
  dirty_blocks : int;
  free_segments : int;
  retired_segments : int;
  live_blocks : int;
  write_reduction : float;
  write_amplification : float;
}

let stats t =
  {
    client_writes = t.c_writes;
    client_reads = t.c_reads;
    absorbed_writes = Write_buffer.absorbed_writes t.buffer;
    cancelled_blocks = Write_buffer.cancelled_blocks t.buffer;
    blocks_flushed = t.c_flushed;
    blocks_cleaned = t.c_cleaned;
    cold_loads = t.c_cold;
    hot_retained = 0;
    cleanings = t.c_cleanings;
    dirty_blocks = Write_buffer.size t.buffer;
    free_segments = free_segment_count t;
    retired_segments = t.n_retired;
    live_blocks = t.n_flashed;
    write_reduction =
      (if t.c_writes = 0 then 0.0
       else 1.0 -. (float_of_int t.c_flushed /. float_of_int t.c_writes));
    write_amplification =
      Cleaner.write_amplification
        ~blocks_written:(t.c_flushed + t.c_cleaned)
        ~blocks_flushed:t.c_flushed;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "writes=%d reads=%d absorbed=%d cancelled=%d flushed=%d cleaned=%d \
     reduction=%.1f%% amplification=%.2f dirty=%d free_segs=%d live=%d"
    s.client_writes s.client_reads s.absorbed_writes s.cancelled_blocks
    s.blocks_flushed s.blocks_cleaned
    (100.0 *. s.write_reduction)
    s.write_amplification s.dirty_blocks s.free_segments s.live_blocks

(* A scan of the segments' erase counts, which holds [Static]'s running
   total and maximum against the flash as it goes. *)
let wear_evenness t =
  let counts = Array.map (erase_count_of_segment t) t.segments in
  let e = Wear.evenness counts in
  let total = Array.fold_left ( + ) 0 counts in
  if total <> t.erase_total || e.Wear.max_erases <> t.erase_max then
    Fmt.failwith "Manager: erase total %d and max %d run apart from the flash's %d and %d"
      t.erase_total t.erase_max total e.Wear.max_erases;
  e

(* A chained block keeps a durable base page on flash even while its
   newest data sits dirty in DRAM, so placement introspection reports the
   base — that is the copy a crash rolls back to, and the placement the
   crash harness asserts survives a remount.  The sector of the block's
   live flash copy, -1 for none. *)
let flash_home t b =
  match (state_of t b, t.diff) with
  | Flashed, _ -> t.home.(b)
  | Buffered, Some d when Diff_log.has_chain d ~block:b -> t.home.(b)
  | (Absent | Buffered | Blank), _ -> -1

let segment_of_block t b =
  let s = flash_home t b in
  if s < 0 then None else Some (seg_of_sector t s)

let has_flash_copy t b = flash_home t b >= 0

let location_of_block t b =
  let s = flash_home t b in
  if s < 0 then None else Some (seg_of_sector t s, slot_of_sector t s)

let buffer_pending_entries t = Write_buffer.pending_entries t.buffer

let diff_stats t = Option.map Diff_log.stats t.diff

let delta_chain_length t b =
  match t.diff with Some d -> Diff_log.chain_length d ~block:b | None -> 0

type segment_snapshot = {
  seg_state : Segment.state;
  seg_live : int;
  seg_used : int;
  seg_erases : int;
  seg_retired : bool;
}

let segment_snapshots t =
  Array.mapi
    (fun i seg ->
      {
        seg_state = Segment.state seg;
        seg_live = Segment.live_count seg;
        seg_used = Segment.used_slots seg;
        seg_erases = erase_count_of_segment t seg;
        seg_retired = t.retired.(i);
      })
    t.segments

let block_is_dirty t b =
  match state_of t b with Buffered -> true | Absent | Blank | Flashed -> false

let known_blocks t =
  let acc = ref [] in
  for b = Array.length t.state - 1 downto 0 do
    if block_exists t b then acc := b :: !acc
  done;
  !acc

(* The one reset chokepoint for the storage stack: module counters and the
   probe registry clear together, so neither can drift from the other.
   (Probe state is per-domain and shared by every component on this domain,
   which is exactly the Machine.preload "start clean" contract.) *)
let reset_traffic t =
  t.c_writes <- 0;
  t.c_reads <- 0;
  t.c_flushed <- 0;
  t.c_cleaned <- 0;
  t.c_cold <- 0;
  t.c_cleanings <- 0;
  Write_buffer.reset_counters t.buffer;
  (match t.diff with Some d -> Diff_log.reset_counters d | None -> ());
  Device.Flash.reset_stats t.flash;
  Device.Dram.reset_stats t.dram;
  Probe.reset ()

(* --- Crash recovery ---------------------------------------------------------- *)

type remount_report = {
  sectors_scanned : int;
  live_recovered : int;
  stale_discarded : int;
  buffered_lost : int;
}

let pp_remount_report ppf r =
  Fmt.pf ppf "scanned=%d recovered=%d stale=%d lost_from_buffer=%d" r.sectors_scanned
    r.live_recovered r.stale_discarded r.buffered_lost

(* Read every good sector's 16-byte header, charging the device, then
   build the manager from those headers: the flash alone, nothing of a
   manager that ran on it before. *)
let mount ?card cfg ~engine ~flash ~dram =
  let now = Engine.now engine in
  let cursor = ref now in
  let scanned = ref 0 in
  for sector = 0 to Device.Flash.nsectors flash - 1 do
    match Device.Flash.read flash ~now:!cursor ~sector ~bytes:16 with
    | finish ->
      incr scanned;
      cursor := finish
    | exception Device.Flash.Error Device.Flash.Bad_sector -> ()
  done;
  let t = create ?card cfg ~engine ~flash ~dram in
  let report =
    {
      sectors_scanned = !scanned;
      live_recovered = t.n_flashed;
      (* Right after a mount, every dead slot is a copy the headers left
         stale. *)
      stale_discarded =
        Array.fold_left
          (fun n seg -> n + Segment.used_slots seg - Segment.live_count seg)
          0 t.segments;
      buffered_lost = 0;
    }
  in
  Log.info (fun m -> m "mount: %a" pp_remount_report report);
  Probe.incr t.probes.p_remounts;
  if Probe.timeline_enabled () then
    Probe.span ~name:"manager.remount" ~cat:"recovery"
      ~args:
        (card_args t
           [
             ("sectors_scanned", string_of_int report.sectors_scanned);
             ("live_recovered", string_of_int report.live_recovered);
             ("stale_discarded", string_of_int report.stale_discarded);
           ])
      ~start:now ~finish:!cursor ();
  (t, Time.diff !cursor now, report)

(* Power is gone: the dead manager must never touch the flash again, and
   the DRAM buffer's contents are exactly what the crash loses. *)
let crash_and_remount t =
  let buffered_lost = detach t in
  let fresh, span, report =
    mount ?card:t.card t.cfg ~engine:t.engine ~flash:t.flash ~dram:t.dram
  in
  (fresh, span, { report with buffered_lost })
