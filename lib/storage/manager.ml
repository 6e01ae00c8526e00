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

type block = int

type loc =
  | Blank  (** Allocated, no data anywhere yet. *)
  | Buffered  (** Dirty in the DRAM write buffer. *)
  | Flashed of { seg : int; slot : int }

type meta = {
  mutable loc : loc;
  (* Sector holding this block's newest durable header, -1 if none.  It can
     trail [loc]: a rewritten-but-dirty block keeps its old on-flash header
     live so a crash rolls back to the previous version instead of losing
     the block outright. *)
  mutable hdr_sector : int;
}

(* A sector header as the log-structured convention stores it on the
   medium.  [h_live] is the in-place obsoletion bit: NOR flash can clear
   bits without an erase, so superseding or deleting a block marks its old
   header dead where it lies — remount then never resurrects stale data.
   [h_pos] distinguishes a full base page (-1, the only kind without diff
   logging) from a delta record at that position in its block's chain. *)
type header = { h_block : int; h_version : int; mutable h_live : bool; h_pos : int }

(* Both metadata tables are dense-keyed — block ids count up from zero and
   sector numbers are bounded by the flash geometry — so each is an array
   indexed directly by its key, with absence a shared sentinel compared by
   physical identity.  A lookup on the replay hot path is one bounds check
   and one load, and an insert allocates nothing beyond the record itself;
   the hashtables these replace allocated a bucket per insert and their
   resizes dominated preload.  The sentinels are never mutated: every
   mutation goes through a record a successful lookup returned ([find_meta]
   raises on the sentinel, [obsolete_header] guards on [h_block]). *)
let no_meta : meta = { loc = Blank; hdr_sector = min_int }

let no_header : header =
  { h_block = min_int; h_version = min_int; h_live = false; h_pos = -1 }

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
  mutable meta : meta array; (* indexed by block id; [no_meta] = absent *)
  mutable next_block : block;
  mutable open_fresh : int option;
  mutable open_clean : int option;
  mutable open_cold : int option;
  mutable timer : (Event_queue.handle * Time.t) option;
  mutable cleaning : bool;  (** Re-entrancy guard for the cleaner. *)
  (* Sector headers: which logical block a sector holds, its write version,
     and whether it is still live.  Conceptually part of flash (it survives
     power loss); kept here because the device model does not store
     payloads. *)
  durable : header array; (* indexed by sector; [no_header] = absent *)
  mutable next_version : int;
  (* Incrementally maintained segment-state indexes and counters.  The
     indexes answer every allocation/cleaning decision in O(log n); the
     counters replace O(#segments) rescans in stats and the maybe_clean
     loop condition.  The differential tests hold both against full scans
     of [segments]. *)
  idx : Seg_index.t;
  wear_acc : Wear.acc;
  in_closed_idx : bool array;
  mutable n_live_blocks : int;
  mutable n_retired : int;
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
   per-card utilization falls out of one summary per card. *)
let note_busy t ~start ~finish =
  Probe.observe t.probes.p_busy_us (Time.span_to_us (Time.diff finish start))

(* Timeline spans carry the card position when the manager is part of an
   array; standalone managers emit exactly the historical span args. *)
let card_args t args =
  match t.card with
  | None -> args
  | Some c -> ("card", string_of_int c) :: args

let find_meta t b =
  let m = if b >= 0 && b < Array.length t.meta then t.meta.(b) else no_meta in
  if m != no_meta then m
  else invalid_arg (Printf.sprintf "Manager: unknown block %d" b)

let ensure_meta_capacity t b =
  let cap = Array.length t.meta in
  if b >= cap then begin
    let narr = Array.make (max (b + 1) (max 1024 (2 * cap))) no_meta in
    Array.blit t.meta 0 narr 0 cap;
    t.meta <- narr
  end

let set_meta t b m =
  ensure_meta_capacity t b;
  t.meta.(b) <- m

let erase_count_of_segment t seg =
  (* Segments wear uniformly (whole-segment erases), so the first sector's
     count stands for the segment. *)
  Device.Flash.erase_count t.flash ~sector:(Segment.first_sector seg)

(* --- Index maintenance ----------------------------------------------------

   Every segment state transition flows through these hooks, keeping the
   per-bank free/victim structures, the wear accumulator, and the O(1)
   counters in sync with the array the reference scans walk. *)

(* The free index key: erase count under wear-leveling allocation, 0 under
   first-fit (so the min entry is simply the lowest free id). *)
let wear_key t seg =
  if Seg_index.wear_keyed t.idx then erase_count_of_segment t seg else 0

let free_index_add t seg =
  let i = Segment.id seg in
  Seg_index.add_free t.idx ~bank:(bank_of_segment t i) ~key:(wear_key t seg) ~id:i

let free_index_remove t seg =
  let i = Segment.id seg in
  Seg_index.remove_free t.idx ~bank:(bank_of_segment t i) ~key:(wear_key t seg) ~id:i

let lt_ns seg = Time.to_ns (Segment.last_touched seg)

let closed_index_add t seg =
  let i = Segment.id seg in
  if not t.retired.(i) then begin
    Seg_index.add_closed t.idx ~bank:(bank_of_segment t i) ~id:i
      ~live:(Segment.live_count seg) ~erase:(erase_count_of_segment t seg)
      ~lt_ns:(lt_ns seg);
    t.in_closed_idx.(i) <- true
  end

let closed_index_remove t seg =
  let i = Segment.id seg in
  if t.in_closed_idx.(i) then begin
    Seg_index.remove_closed t.idx ~bank:(bank_of_segment t i) ~id:i
      ~live:(Segment.live_count seg) ~erase:(erase_count_of_segment t seg)
      ~lt_ns:(lt_ns seg);
    t.in_closed_idx.(i) <- false
  end

(* After [Segment.kill seg ~slot]. *)
let note_kill t seg =
  t.n_live_blocks <- t.n_live_blocks - 1;
  let i = Segment.id seg in
  if t.in_closed_idx.(i) then begin
    let live = Segment.live_count seg in
    Seg_index.closed_live_changed t.idx ~bank:(bank_of_segment t i) ~id:i
      ~old_live:(live + 1) ~new_live:live ~lt_ns:(lt_ns seg)
  end

(* Rebuild every index, counter, and the wear accumulator from the segment
   array (manager creation and crash recovery, where the rebuild loop
   manipulates segments directly). *)
let rebuild_indexes t =
  Seg_index.clear t.idx;
  Wear.acc_clear t.wear_acc;
  Array.fill t.in_closed_idx 0 (Array.length t.in_closed_idx) false;
  t.n_live_blocks <- 0;
  t.n_retired <- 0;
  Array.iteri
    (fun i seg ->
      Wear.acc_add t.wear_acc (erase_count_of_segment t seg);
      t.n_live_blocks <- t.n_live_blocks + Segment.live_count seg;
      if t.retired.(i) then t.n_retired <- t.n_retired + 1
      else
        match Segment.state seg with
        | Segment.Free -> free_index_add t seg
        | Segment.Closed -> closed_index_add t seg
        | Segment.Open -> ())
    t.segments

let create ?card cfg ~engine ~flash ~dram =
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
      retired = Array.make nsegments false;
      segs_per_bank;
      buffer = Write_buffer.create cfg.buffer;
      meta = Array.make (nsegments * cfg.segment_sectors) no_meta;
      next_block = 0;
      open_fresh = None;
      open_clean = None;
      open_cold = None;
      timer = None;
      cleaning = false;
      durable = Array.make (Device.Flash.nsectors flash) no_header;
      next_version = 0;
      idx =
        Seg_index.create ~nbanks
          ~wear_keyed:(cfg.wear <> Wear.None_)
          ~track_live:(cfg.cleaner = Cleaner.Greedy)
          ~track_erase:(match cfg.wear with Wear.Static _ -> true | _ -> false)
          ~track_age:(cfg.cleaner = Cleaner.Cost_benefit);
      wear_acc = Wear.acc_create ();
      in_closed_idx = Array.make nsegments false;
      n_live_blocks = 0;
      n_retired = 0;
      c_writes = 0;
      c_reads = 0;
      c_flushed = 0;
      c_cleaned = 0;
      c_cold = 0;
      c_cleanings = 0;
    }
  in
  rebuild_indexes t;
  t

let free_segment_count t = Seg_index.free_count t.idx
let capacity_blocks t = (nsegments t - t.n_retired) * t.cfg.segment_sectors

let kill_slot t ~seg ~slot =
  let s = t.segments.(seg) in
  Segment.kill s ~slot;
  note_kill t s

(* Kill a block's flash copy (data superseded or freed). *)
let kill_flash_copy t m =
  match m.loc with
  | Flashed { seg; slot } ->
    kill_slot t ~seg ~slot;
    m.loc <- Blank
  | Blank | Buffered -> ()

let or_device_failure = function
  | Ok op -> op
  | Error e -> Fmt.failwith "Manager: unexpected flash failure: %a" Device.Flash.pp_error e

(* Clear a block's previous header's liveness bit in place, if it still
   exists and still belongs to this block (cleaning may have erased the
   sector and a later program reused it for someone else). *)
let obsolete_header t ~block ~hdr_sector =
  if hdr_sector >= 0 then begin
    let h = t.durable.(hdr_sector) in
    if h.h_block = block then h.h_live <- false
  end

(* Written as part of every sector program (the 16-byte header).  The new
   header supersedes the block's previous one, which is obsoleted in place
   — the bit-clear rides along with programs the caller already charged to
   the device, so it costs no extra bank time. *)
let record_header t m ~sector ~block =
  obsolete_header t ~block ~hdr_sector:m.hdr_sector;
  let version = t.next_version in
  t.next_version <- version + 1;
  t.durable.(sector) <- { h_block = block; h_version = version; h_live = true; h_pos = -1 };
  m.hdr_sector <- sector

(* A delta record's header.  Deltas deliberately bypass [m.hdr_sector]:
   that pointer tracks the block's base header (the rollback anchor), and
   a chain keeps base plus every delta live at once.  [prev_sector]
   obsoletes the delta's own superseded copy when the cleaner relocates
   it. *)
let record_delta_header t ~sector ~block ~pos ~prev_sector =
  (match prev_sector with
  | Some s -> obsolete_header t ~block ~hdr_sector:s
  | None -> ());
  let version = t.next_version in
  t.next_version <- version + 1;
  t.durable.(sector) <- { h_block = block; h_version = version; h_live = true; h_pos = pos }

(* --- Free-segment picks --------------------------------------------------- *)

(* The index walk: per allowed bank, one O(log n) min/max lookup; across
   banks, prefer the least-busy bank, then the wear policy's key, then the
   lowest id — the tie-breaking of {!Wear.pick_free} over the least-busy
   bank's free segments (ids ascend with banks, and each bank entry
   already carries its lowest tied id).  No closures, no intermediate
   lists. *)
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
    if
      Seg_index.bank_free_count t.idx ~bank > 0
      && ((not restrict) || Banks.allowed t.cfg.banking ~nbanks purpose ~bank)
    then begin
      let entry =
        if want_most_worn then Seg_index.most_worn_free t.idx ~bank
        else Seg_index.least_worn_free t.idx ~bank
      in
      match entry with
      | None -> assert false (* bank_free_count > 0 *)
      | Some (key, id) ->
        let better =
          !best_id < 0
          ||
          let busy = Device.Flash.bank_busy_until t.flash ~bank in
          Time.( < ) busy !best_busy
          || Time.equal busy !best_busy
             && (if want_most_worn then key > !best_key else key < !best_key)
        in
        if better then begin
          best_id := id;
          best_key := key;
          best_busy := Device.Flash.bank_busy_until t.flash ~bank
        end
    end
  done;
  if !best_id < 0 then None else Some t.segments.(!best_id)

(* --- Victim selection ----------------------------------------------------- *)

let bank_allowed_for t ~purpose ~bank =
  match purpose with
  | None -> true
  | Some p -> Banks.allowed t.cfg.banking ~nbanks:(Device.Flash.nbanks t.flash) p ~bank

(* {!Wear.relocation_victim}, then {!Cleaner.select}, answered from the
   per-bank indexes. *)
let select_victim t ~now ~purpose =
  let nbanks = Device.Flash.nbanks t.flash in
  let relocation =
    match t.cfg.wear with
    | Wear.None_ | Wear.Dynamic -> None
    | Wear.Static { spread_threshold } ->
      let e = Wear.evenness_of_acc t.wear_acc in
      if not (Wear.spread_exceeds e ~spread_threshold) then None
      else begin
        (* The least-worn closed segment in the allowed banks, lowest id
           on ties. *)
        let best_id = ref (-1) in
        let best_key = ref 0 in
        for bank = 0 to nbanks - 1 do
          if bank_allowed_for t ~purpose ~bank then
            match Seg_index.coldest_closed t.idx ~bank with
            | Some (key, id) ->
              if !best_id < 0 || key < !best_key then begin
                best_id := id;
                best_key := key
              end
            | None -> ()
        done;
        if !best_id < 0 then None else Some t.segments.(!best_id)
      end
  in
  match relocation with
  | Some v -> Some v
  | None -> (
    match t.cfg.cleaner with
    | Cleaner.Greedy ->
      (* Greedy maximizes 1 - u, i.e. minimizes the live count; lowest id
         on ties (per-bank entries carry their lowest tied id, and ids
         ascend with banks). *)
      let best_id = ref (-1) in
      let best_key = ref 0 in
      for bank = 0 to nbanks - 1 do
        if bank_allowed_for t ~purpose ~bank then
          match Seg_index.least_live_closed t.idx ~bank with
          | Some (key, id) ->
            if !best_id < 0 || key < !best_key then begin
              best_id := id;
              best_key := key
            end
          | None -> ()
      done;
      if !best_id < 0 then None else Some t.segments.(!best_id)
    | Cleaner.Cost_benefit ->
      (* Within one last-touched group the age factor is shared, so only
         the group's emptiest-lowest-id member can win; across groups,
         walk oldest-first and stop once the group's score ceiling
         (age + 1, utilization 0) can no longer beat the best so far.
         Scores are computed by Cleaner.score itself, so the floats are
         the reference's floats. *)
      let best_id = ref (-1) in
      let best_score = ref neg_infinity in
      for bank = 0 to nbanks - 1 do
        if bank_allowed_for t ~purpose ~bank then
          Seg_index.iter_age_reps t.idx ~bank ~f:(fun ~lt_ns ~id ->
              let lt = Time.of_ns lt_ns in
              let age = Time.span_to_s (Time.diff (Time.max now lt) lt) in
              if !best_id >= 0 && age +. 1.0 < !best_score then false
              else begin
                let s = Cleaner.score t.cfg.cleaner ~now t.segments.(id) in
                if
                  !best_id < 0 || s > !best_score
                  || (s = !best_score && id < !best_id)
                then begin
                  best_id := id;
                  best_score := s
                end;
                true
              end)
      done;
      if !best_id < 0 then None else Some t.segments.(!best_id))

let next_free_segment t ~purpose ~restrict =
  Option.map Segment.id (pick_free t ~purpose ~restrict)

let next_victim t ~purpose =
  Option.map Segment.id (select_victim t ~now:(Engine.now t.engine) ~purpose)

(* --- Log appends, segment acquisition, cleaning -------------------------- *)

(* Append [block] to the open segment [seg] and program its sector with
   [bytes] on the cursor: the one place the log grows, and so the one
   place segments fill, get touched, and turn Closed (where they become
   victim candidates).  Returns the slot. *)
let program_append t seg ~cursor ~block ~bytes =
  match Segment.append seg ~block with
  | None -> assert false (* callers hold an Open (non-full) segment *)
  | Some slot ->
    t.n_live_blocks <- t.n_live_blocks + 1;
    Segment.touch seg ~at:(Engine.now t.engine);
    if Segment.state seg = Segment.Closed then closed_index_add t seg;
    let prog =
      or_device_failure
        (Device.Flash.program t.flash ~now:!cursor
           ~sector:(Segment.sector_of_slot seg slot) ~bytes)
    in
    cursor := prog.Device.Flash.finish;
    Probe.incr t.probes.p_bank_programs.(bank_of_segment t (Segment.id seg));
    slot

let rec ensure_open t ~purpose ~cursor =
  let slot_ref, set =
    match purpose with
    | Banks.Fresh_write -> (t.open_fresh, fun v -> t.open_fresh <- v)
    | Banks.Clean_out -> (t.open_clean, fun v -> t.open_clean <- v)
    | Banks.Cold_load -> (t.open_cold, fun v -> t.open_cold <- v)
  in
  match slot_ref with
  | Some i when Segment.state t.segments.(i) = Segment.Open -> t.segments.(i)
  | Some _ | None ->
    let seg = acquire t ~purpose ~cursor in
    set (Some (Segment.id seg));
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
            m "out of space: %d live blocks, %d free segments" t.n_live_blocks
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
    Fun.protect ~finally:(fun () -> t.cleaning <- false) @@ fun () ->
    let now = Engine.now t.engine in
    match select_victim t ~now ~purpose with
    | None ->
      Log.debug (fun m -> m "cleaner: no eligible victim");
      false
    | Some victim ->
      Log.debug (fun m ->
          m "cleaning segment %d (live %d/%d, %d erases)" (Segment.id victim)
            (Segment.live_count victim) (Segment.nslots victim)
            (erase_count_of_segment t victim));
      (* The victim leaves the candidate structures now; the copy-out
         kills below adjust only the live-block counter. *)
      closed_index_remove t victim;
      (* Don't clean a segment that frees nothing unless wear leveling
         forced it (in which case it was returned by relocation_victim). *)
      t.c_cleanings <- t.c_cleanings + 1;
      Probe.incr t.probes.p_cleanings;
      let clean_start = !cursor in
      let live_in = Segment.live_count victim in
      let bytes = block_bytes t in
      (* Copy out the survivors.  With diff logging on, a live slot may
         hold a chain's base page or one of its delta records rather than
         the block's only copy; relocating those updates the chain table
         (and, for deltas, the record's own header) instead of [m.loc]. *)
      List.iter
        (fun (slot, b) ->
          let sector = Segment.sector_of_slot victim slot in
          let role =
            match t.diff with
            | Some d when Diff_log.has_chain d ~block:b -> (
              match Diff_log.base d ~block:b with
              | Some (bs, bl) when bs = Segment.id victim && bl = slot -> `Base d
              | Some _ | None -> (
                match
                  List.find_opt
                    (fun (dl : Diff_log.delta) ->
                      dl.Diff_log.d_seg = Segment.id victim && dl.Diff_log.d_slot = slot)
                    (Diff_log.deltas d ~block:b)
                with
                | Some dl -> `Delta (d, dl)
                | None -> `Whole))
            | Some _ | None -> `Whole
          in
          let nbytes =
            match role with `Delta (_, dl) -> dl.Diff_log.d_bytes | `Base _ | `Whole -> bytes
          in
          let read_op =
            or_device_failure
              (Device.Flash.read t.flash ~now:!cursor ~sector ~bytes:nbytes)
          in
          cursor := read_op.Device.Flash.finish;
          let out = ensure_open t ~purpose:Banks.Clean_out ~cursor in
          let out_slot = program_append t out ~cursor ~block:b ~bytes:nbytes in
          let out_sector = Segment.sector_of_slot out out_slot in
          (match role with
          | `Whole ->
            let m = find_meta t b in
            record_header t m ~sector:out_sector ~block:b;
            m.loc <- Flashed { seg = Segment.id out; slot = out_slot }
          | `Base d ->
            let m = find_meta t b in
            record_header t m ~sector:out_sector ~block:b;
            Diff_log.rebase d ~block:b ~seg:(Segment.id out) ~slot:out_slot;
            (* While the block sits dirty its loc stays Buffered; the
               chain table alone tracks where the base went. *)
            (match m.loc with
            | Flashed _ -> m.loc <- Flashed { seg = Segment.id out; slot = out_slot }
            | Buffered | Blank -> ())
          | `Delta (d, dl) ->
            record_delta_header t ~sector:out_sector ~block:b ~pos:dl.Diff_log.d_pos
              ~prev_sector:(Some dl.Diff_log.d_sector);
            Diff_log.relocate_delta d ~block:b ~pos:dl.Diff_log.d_pos
              ~seg:(Segment.id out) ~slot:out_slot ~sector:out_sector);
          Segment.kill victim ~slot;
          note_kill t victim;
          t.c_cleaned <- t.c_cleaned + 1;
          Probe.incr t.probes.p_cleaned)
        (Segment.live_blocks victim);
      (* Erase the sectors that were programmed since the last erase. *)
      let erases_before = erase_count_of_segment t victim in
      let victim_bank = bank_of_segment t (Segment.id victim) in
      for slot = 0 to Segment.used_slots victim - 1 do
        let sector = Segment.sector_of_slot victim slot in
        t.durable.(sector) <- no_header;
        match Device.Flash.erase t.flash ~now:!cursor ~sector with
        | Ok op ->
          cursor := op.Device.Flash.finish;
          Probe.incr t.probes.p_bank_erases.(victim_bank)
        | Error Device.Flash.Bad_sector -> ()
        | Error e ->
          Fmt.failwith "Manager: erase failed: %a" Device.Flash.pp_error e
      done;
      Wear.acc_bump t.wear_acc ~old_count:erases_before
        ~new_count:(erase_count_of_segment t victim);
      Segment.reset_to_free victim;
      (* Retire the segment if wear-out claimed any of its sectors. *)
      let worn = ref false in
      for slot = 0 to Segment.nslots victim - 1 do
        if Device.Flash.is_bad t.flash ~sector:(Segment.sector_of_slot victim slot)
        then worn := true
      done;
      if !worn then begin
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

(* Program one client/cold block at the head of the log, whole. *)
let append_full t ~purpose ~cursor b =
  let seg = ensure_open t ~purpose ~cursor in
  let slot = program_append t seg ~cursor ~block:b ~bytes:(block_bytes t) in
  let m = find_meta t b in
  record_header t m ~sector:(Segment.sector_of_slot seg slot) ~block:b;
  m.loc <- Flashed { seg = Segment.id seg; slot }

(* Program an overwrite as a delta record against the chain's base page:
   one log slot, but only [delta_bytes] of program traffic.  The block's
   loc goes back to the base page — reads reassemble base + chain, and
   the crash harness's placement invariant is over the base. *)
let append_delta t d ~cursor b ~bseg ~bslot =
  let nbytes = (Diff_log.config d).Diff_log.delta_bytes in
  let seg = ensure_open t ~purpose:Banks.Fresh_write ~cursor in
  let slot = program_append t seg ~cursor ~block:b ~bytes:nbytes in
  let sector = Segment.sector_of_slot seg slot in
  let pos = Diff_log.next_pos d ~block:b in
  record_delta_header t ~sector ~block:b ~pos ~prev_sector:None;
  Diff_log.push_delta d ~block:b ~pos ~seg:(Segment.id seg) ~slot ~sector ~bytes:nbytes;
  Diff_log.note_delta_programmed d ~bytes:nbytes;
  (find_meta t b).loc <- Flashed { seg = bseg; slot = bslot }

(* Retire a block's chain: kill the base page's slot and every delta
   record's slot, obsolete the delta headers, and forget the chain.  The
   base header is the block's own ([m.hdr_sector]); the caller supersedes
   it (merge) or obsoletes it (free). *)
let drop_chain t d ~block =
  (match Diff_log.base d ~block with
  | Some (seg, slot) -> kill_slot t ~seg ~slot
  | None -> assert false);
  List.iter
    (fun (dl : Diff_log.delta) ->
      kill_slot t ~seg:dl.Diff_log.d_seg ~slot:dl.Diff_log.d_slot;
      obsolete_header t ~block ~hdr_sector:dl.Diff_log.d_sector)
    (Diff_log.deltas d ~block);
  Diff_log.drop d ~block

(* Fold a chain back into a single full base page: read base + deltas
   (the reassembly cost), retire every chain slot and delta header, then
   program the merged page as a fresh full write.  Runs on the flush
   cursor right after the delta that tripped the threshold, so merges
   ride the writeback timer's pacing like any other flush work. *)
let merge_chain t d ~cursor b =
  let bseg, bslot =
    match Diff_log.base d ~block:b with Some p -> p | None -> assert false
  in
  let full = block_bytes t in
  let read sector nbytes =
    let op =
      or_device_failure (Device.Flash.read t.flash ~now:!cursor ~sector ~bytes:nbytes)
    in
    cursor := op.Device.Flash.finish
  in
  read (Segment.sector_of_slot t.segments.(bseg) bslot) full;
  List.iter
    (fun (dl : Diff_log.delta) -> read dl.Diff_log.d_sector dl.Diff_log.d_bytes)
    (Diff_log.deltas d ~block:b);
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
    let bseg, bslot =
      match Diff_log.base d ~block:b with Some p -> p | None -> assert false
    in
    append_delta t d ~cursor b ~bseg ~bslot;
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

let rec arm_timer t =
  match Write_buffer.next_deadline t.buffer with
  | None -> ()
  | Some deadline ->
    let need_schedule =
      match t.timer with
      | Some (_, at) -> Time.( < ) deadline at
      | None -> true
    in
    if need_schedule then begin
      (match t.timer with Some (h, _) -> Engine.cancel t.engine h | None -> ());
      let at = Time.max deadline (Engine.now t.engine) in
      let handle = Engine.schedule t.engine ~at (fun _ -> timer_fired t) in
      t.timer <- Some (handle, at)
    end

and over_watermark t =
  match t.cfg.flush_watermark with
  | None -> false
  | Some w ->
    Write_buffer.capacity t.buffer > 0
    && float_of_int (Write_buffer.size t.buffer)
       >= w *. float_of_int (Write_buffer.capacity t.buffer)

and timer_fired t =
  t.timer <- None;
  let now = Engine.now t.engine in
  let expired = Write_buffer.take_expired ~limit:t.cfg.max_flush_batch t.buffer ~now in
  (* Capacity-threshold policy: above the watermark, flush ahead of the
     deadlines, oldest first. *)
  let expired =
    if List.length expired >= t.cfg.max_flush_batch then expired
    else begin
      let extra = ref [] in
      while
        over_watermark t
        && List.length expired + List.length !extra < t.cfg.max_flush_batch
        &&
        match Write_buffer.oldest t.buffer with
        | Some b -> Write_buffer.take t.buffer ~block:b && (extra := b :: !extra; true)
        | None -> false
      do
        ()
      done;
      expired @ List.rev !extra
    end
  in
  let cursor = ref now in
  List.iter (flush_block t ~cursor ~buffered:true) expired;
  if expired <> [] then note_busy t ~start:now ~finish:!cursor;
  if expired <> [] && Probe.timeline_enabled () then
    Probe.span ~name:"write_buffer.flush_batch" ~cat:"storage"
      ~args:(card_args t [ ("blocks", string_of_int (List.length expired)) ])
      ~start:now ~finish:!cursor ();
  (* If a backlog remains, continue only after the device digested this
     batch and a spacing gap — pacing bounds how much bank time queued
     writeback can steal from foreground reads. *)
  match Write_buffer.next_deadline t.buffer with
  | Some d when Time.( <= ) d now || over_watermark t ->
    ignore d;
    let at = Time.max (Time.add now t.cfg.flush_spacing) !cursor in
    let handle = Engine.schedule t.engine ~at (fun _ -> timer_fired t) in
    t.timer <- Some (handle, at)
  | Some _ | None -> arm_timer t

(* --- Client operations ---------------------------------------------------- *)

let alloc t =
  let b = t.next_block in
  t.next_block <- b + 1;
  set_meta t b { loc = Blank; hdr_sector = -1 };
  b

let next_fresh_block t = t.next_block

let reserve_blocks t ~next =
  if next > t.next_block then t.next_block <- next

let block_exists t b = b >= 0 && b < Array.length t.meta && t.meta.(b) != no_meta

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
  set_meta t b { loc = Blank; hdr_sector = -1 }

(* The card is leaving the machine: cancel the pending writeback timer and
   drop the buffer, so the dormant manager can never program a device that
   is no longer there.  Returns how many dirty blocks the drop lost. *)
let detach t =
  (match t.timer with Some (h, _) -> Engine.cancel t.engine h | None -> ());
  t.timer <- None;
  List.length (Write_buffer.drain t.buffer)

(* Flush one specific dirty block synchronously (eviction path). *)
let flush_now t ~cursor b =
  if Write_buffer.take t.buffer ~block:b then flush_block t ~cursor ~buffered:true b

let write_block_at t ~at b =
  let m = find_meta t b in
  t.c_writes <- t.c_writes + 1;
  Probe.incr t.probes.p_writes;
  (match t.diff with
  | None -> kill_flash_copy t m
  | Some d -> (
    (* Keep the flash copy live: it becomes (or already is) the base page
       the overwrite will flush a delta against.  A crash before that
       flush rolls the block back to base + already-flushed deltas. *)
    match m.loc with
    | Flashed { seg; slot } ->
      if not (Diff_log.has_chain d ~block:b) then Diff_log.begin_chain d ~block:b ~seg ~slot
    | Blank | Buffered -> ()));
  let cursor = ref at in
  let dram_latency = Device.Dram.write t.dram ~bytes:(block_bytes t) in
  cursor := Time.add !cursor dram_latency;
  if Write_buffer.capacity t.buffer = 0 then begin
    (* Write-through: straight to flash; the client eats the program time. *)
    flush_block t ~cursor ~buffered:false b
  end
  else begin
    let rec admit () =
      match Write_buffer.write t.buffer ~now:at ~block:b with
      | Write_buffer.Absorbed | Write_buffer.Admitted -> m.loc <- Buffered
      | Write_buffer.Needs_eviction -> begin
        match Write_buffer.oldest t.buffer with
        | Some victim ->
          flush_now t ~cursor victim;
          admit ()
        | None -> assert false (* full implies non-empty *)
      end
    in
    admit ();
    (if over_watermark t then begin
       (* Pull the next flush forward to now. *)
       let now_t = Engine.now t.engine in
       let need =
         match t.timer with Some (_, at) -> Time.( < ) now_t at | None -> true
       in
       if need then begin
         (match t.timer with Some (h, _) -> Engine.cancel t.engine h | None -> ());
         let handle = Engine.schedule t.engine ~at:now_t (fun _ -> timer_fired t) in
         t.timer <- Some (handle, now_t)
       end
     end);
    arm_timer t
  end;
  note_busy t ~start:at ~finish:!cursor;
  !cursor

let write_block t b =
  let now = Engine.now t.engine in
  Time.diff (write_block_at t ~at:now b) now

let read_block_at ?bytes t ~at b =
  let m = find_meta t b in
  let bytes = Option.value bytes ~default:(block_bytes t) in
  t.c_reads <- t.c_reads + 1;
  Probe.incr t.probes.p_reads;
  match m.loc with
  | Blank | Buffered -> Time.add at (Device.Dram.read t.dram ~bytes)
  | Flashed { seg; slot } ->
    let sector = Segment.sector_of_slot t.segments.(seg) slot in
    let op = or_device_failure (Device.Flash.read t.flash ~now:at ~sector ~bytes) in
    let finish = op.Device.Flash.finish in
    (* Chain reassembly: the base page read above plus every delta record,
       cursor-threaded — the read-latency side of the diff-log trade. *)
    let finish =
      match t.diff with
      | Some d when Diff_log.has_chain d ~block:b ->
        Diff_log.note_reassembly d;
        List.fold_left
          (fun fin (dl : Diff_log.delta) ->
            let op =
              or_device_failure
                (Device.Flash.read t.flash ~now:fin ~sector:dl.Diff_log.d_sector
                   ~bytes:dl.Diff_log.d_bytes)
            in
            op.Device.Flash.finish)
          finish (Diff_log.deltas d ~block:b)
      | Some _ | None -> finish
    in
    note_busy t ~start:at ~finish;
    finish

let read_block ?bytes t b =
  let now = Engine.now t.engine in
  Time.diff (read_block_at ?bytes t ~at:now b) now

let free_block t b =
  let m = find_meta t b in
  (match m.loc with
  | Buffered -> ignore (Write_buffer.remove t.buffer ~block:b)
  | Flashed _ | Blank -> ());
  (match t.diff with
  | Some d when Diff_log.has_chain d ~block:b ->
    (* The whole chain dies with the block: base page (live even while
       the block sat dirty) and every delta record and header. *)
    drop_chain t d ~block:b;
    m.loc <- Blank
  | Some _ | None -> kill_flash_copy t m);
  (* Deletion is durable: whatever header the block still has on flash —
     even a rollback copy left live while the block sat dirty — is
     obsoleted in place, so a crash cannot resurrect freed data. *)
  obsolete_header t ~block:b ~hdr_sector:m.hdr_sector;
  t.meta.(b) <- no_meta

let load_cold t b =
  let m = find_meta t b in
  (match m.loc with
  | Blank -> ()
  | Buffered | Flashed _ -> invalid_arg "Manager.load_cold: block already has data");
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

(* [n_live_blocks] counts live log slots — with chains, a block holds
   several (base + deltas), and a dirty chained block's base is live with
   the block counted under [dirty_blocks].  Correct both out so
   [stats.live_blocks] keeps meaning "blocks whose current data is a
   flash copy", which fs-level accounting sums against the namespace. *)
let resident_blocks t =
  let phys = t.n_live_blocks in
  match t.diff with
  | None -> phys
  | Some d ->
    let extra = ref 0 in
    Diff_log.iter_chains d ~f:(fun ~block ~ndeltas ->
        extra :=
          !extra + ndeltas
          + (match (find_meta t block).loc with Buffered -> 1 | Blank | Flashed _ -> 0));
    phys - !extra

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
    live_blocks = resident_blocks t;
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

let wear_evenness t = Wear.evenness_of_acc t.wear_acc

(* A chained block keeps a durable base page on flash even while its
   newest data sits dirty in DRAM, so placement introspection reports the
   base — that is the copy a crash rolls back to, and the placement the
   crash harness asserts survives a remount. *)
let chain_base t b =
  match t.diff with Some d -> Diff_log.base d ~block:b | None -> None

let segment_of_block t b =
  match (find_meta t b).loc with
  | Flashed { seg; _ } -> Some seg
  | Buffered -> Option.map fst (chain_base t b)
  | Blank -> None

let location_of_block t b =
  match (find_meta t b).loc with
  | Flashed { seg; slot } -> Some (seg, slot)
  | Buffered -> chain_base t b
  | Blank -> None

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
  match (find_meta t b).loc with Buffered -> true | Blank | Flashed _ -> false

let known_blocks t =
  let acc = ref [] in
  for b = Array.length t.meta - 1 downto 0 do
    if t.meta.(b) != no_meta then acc := b :: !acc
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

let crash_and_remount t =
  let buffered_lost = Write_buffer.size t.buffer in
  (* Power is gone: the dead manager must never touch the (shared) flash
     again.  Cancel its pending writeback timer and discard the DRAM
     buffer's contents — that is exactly the data the crash loses. *)
  (match t.timer with Some (h, _) -> Engine.cancel t.engine h | None -> ());
  t.timer <- None;
  ignore (Write_buffer.drain t.buffer);
  let fresh = create ?card:t.card t.cfg ~engine:t.engine ~flash:t.flash ~dram:t.dram in
  (* Deep-copy the headers: they model on-flash state shared by old and new
     manager, but the records are mutable and the dead manager must not
     alias the live one's. *)
  Array.iteri
    (fun k h ->
      if h != no_header then
        fresh.durable.(k) <-
          { h_block = h.h_block; h_version = h.h_version; h_live = h.h_live;
            h_pos = h.h_pos })
    t.durable;
  fresh.next_version <- t.next_version;
  (* Scan every readable sector's header, charging the device. *)
  let now = Engine.now t.engine in
  let cursor = ref now in
  let scanned = ref 0 in
  for sector = 0 to Device.Flash.nsectors t.flash - 1 do
    match Device.Flash.read t.flash ~now:!cursor ~sector ~bytes:16 with
    | Ok op ->
      incr scanned;
      cursor := op.Device.Flash.finish
    | Error Device.Flash.Bad_sector -> ()
    | Error e -> Fmt.failwith "remount: %a" Device.Flash.pp_error e
  done;
  (* Newest live version of each block's base page wins; headers obsoleted
     in place (superseded or deleted data) never come back.  Delta headers
     (h_pos >= 0, diff logging only) are chain members, not base
     candidates. *)
  let winner = Hashtbl.create 1024 in
  Array.iteri
    (fun sector h ->
      if h != no_header && h.h_live && h.h_pos < 0 then
        match Hashtbl.find_opt winner h.h_block with
        | Some (v, _) when v >= h.h_version -> ()
        | Some _ | None -> Hashtbl.replace winner h.h_block (h.h_version, sector))
    fresh.durable;
  (* Chain recovery (diff logging only): per block, the newest live delta
     header at each position; then accept only the longest contiguous
     position prefix of blocks that kept a base.  A chain truncated at a
     gap — or orphaned by a freed base — rolls the block back to base plus
     the accepted prefix, the same allowance rollback-to-stale makes for a
     block that died dirty.  Everything past the cut is discarded as
     stale. *)
  let accepted = Hashtbl.create 64 in
  (match fresh.diff with
  | None -> ()
  | Some _ ->
    let candidates = Hashtbl.create 64 in
    Array.iteri
      (fun sector h ->
        if h != no_header && h.h_live && h.h_pos >= 0 then begin
          let per =
            match Hashtbl.find_opt candidates h.h_block with
            | Some per -> per
            | None ->
              let per = Hashtbl.create 8 in
              Hashtbl.replace candidates h.h_block per;
              per
          in
          match Hashtbl.find_opt per h.h_pos with
          | Some (v, _) when v >= h.h_version -> ()
          | Some _ | None -> Hashtbl.replace per h.h_pos (h.h_version, sector)
        end)
      fresh.durable;
    Hashtbl.iter
      (fun block per ->
        if Hashtbl.mem winner block then begin
          let rec go pos =
            match Hashtbl.find_opt per pos with
            | Some (_, sector) ->
              Hashtbl.replace accepted sector (block, pos);
              go (pos + 1)
            | None -> ()
          in
          go 0
        end)
      candidates);
  (* Accepted delta slots, recorded as the segment rebuild walks them, so
     the fresh manager's chain table can be rebuilt afterwards. *)
  let recovered_deltas : (int, (int * int * int * int) list) Hashtbl.t =
    Hashtbl.create 64
  in
  (* Rebuild segment occupancy: appends were sequential, so each segment's
     programmed sectors are a prefix of its slots.  The loop drives the
     segments directly; indexes and counters are rebuilt wholesale at the
     end. *)
  let stale = ref 0 in
  let max_block = ref (-1) in
  Array.iter
    (fun seg ->
      let nslots = Segment.nslots seg in
      let occupied = ref 0 in
      for slot = 0 to nslots - 1 do
        if fresh.durable.(Segment.sector_of_slot seg slot) != no_header then
          incr occupied
      done;
      if !occupied > 0 then begin
        Segment.open_ seg;
        for slot = 0 to !occupied - 1 do
          let sector = Segment.sector_of_slot seg slot in
          let h = fresh.durable.(sector) in
          (* A hole would mean appends were not sequential. *)
          assert (h != no_header);
          (match Segment.append seg ~block:h.h_block with
          | Some s -> assert (s = slot)
          | None -> assert false);
          (* Even a dead header pins its block id: a resurrected id would
             otherwise collide with it on the next remount. *)
          max_block := max !max_block h.h_block;
          let winning =
            h.h_live && h.h_pos < 0
            &&
            match Hashtbl.find_opt winner h.h_block with
            | Some (_, s) -> s = sector
            | None -> false
          in
          if winning then
            set_meta fresh h.h_block
              { loc = Flashed { seg = Segment.id seg; slot }; hdr_sector = sector }
          else if h.h_pos >= 0 && Hashtbl.mem accepted sector then begin
            (* An accepted chain member: the slot stays live; the chain
               table entry is registered once every segment is rebuilt. *)
            let block, pos = Hashtbl.find accepted sector in
            Hashtbl.replace recovered_deltas block
              ((pos, Segment.id seg, slot, sector)
              :: (Option.value ~default:[] (Hashtbl.find_opt recovered_deltas block)))
          end
          else begin
            incr stale;
            Segment.kill seg ~slot
          end
        done;
        if Segment.state seg = Segment.Open then Segment.close seg
      end)
    fresh.segments;
  (* Mark wear-retired segments on the fresh manager too. *)
  Array.iteri
    (fun i seg ->
      let worn = ref false in
      for slot = 0 to Segment.nslots seg - 1 do
        if Device.Flash.is_bad t.flash ~sector:(Segment.sector_of_slot seg slot) then
          worn := true
      done;
      if !worn then fresh.retired.(i) <- true)
    fresh.segments;
  (* Re-register the recovered chains: base coordinates come from the
     winning base's meta, deltas in position order from the rebuild walk. *)
  (match fresh.diff with
  | None -> ()
  | Some d ->
    Hashtbl.iter
      (fun block lst ->
        (match (find_meta fresh block).loc with
        | Flashed { seg; slot } -> Diff_log.begin_chain d ~block ~seg ~slot
        | Blank | Buffered -> assert false);
        List.iter
          (fun (pos, seg, slot, sector) ->
            let bytes = (Diff_log.config d).Diff_log.delta_bytes in
            Diff_log.push_delta d ~block ~pos ~seg ~slot ~sector ~bytes)
          (List.sort compare lst))
      recovered_deltas);
  fresh.next_block <- !max_block + 1;
  rebuild_indexes fresh;
  let report =
    {
      sectors_scanned = !scanned;
      live_recovered = Hashtbl.length winner;
      stale_discarded = !stale;
      buffered_lost;
    }
  in
  Log.info (fun m -> m "remount: %a" pp_remount_report report);
  Probe.incr t.probes.p_remounts;
  if Probe.timeline_enabled () then
    Probe.span ~name:"manager.remount" ~cat:"recovery"
      ~args:
        (card_args t
           [
             ("sectors_scanned", string_of_int report.sectors_scanned);
             ("live_recovered", string_of_int report.live_recovered);
             ("stale_discarded", string_of_int report.stale_discarded);
             ("buffered_lost", string_of_int report.buffered_lost);
           ])
      ~start:now ~finish:!cursor ();
  (fresh, Time.diff !cursor now, report)
