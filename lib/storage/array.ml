(* This module IS [Storage.Array]; rebind the name so the [a.(i)]
   indexing operators (which desugar to [Array.get]) hit the stdlib. *)
module Array = Stdlib.Array
module A = Stdlib.Array
open Sim

let log_src = Logs.Src.create "ssmc.storage.array" ~doc:"Striped multi-card array"

module Log = (val Logs.src_log log_src)

let p_flush_groups = Probe.counter "storage.array.flush_card_groups"
let p_parity_writes = Probe.counter "storage.array.parity_writes"
let p_reconstructed = Probe.counter "storage.array.reconstructed_reads"
let p_rebuilt = Probe.counter "storage.array.rebuilt_blocks"

(* What the array remembers about each local slot of a card that is out
   (or being rebuilt): enough to answer reads/writes for the slot and to
   know what rebuild must reconstruct, nothing more.  [Data_slot] means
   the newest version of the block is recoverable from the survivors
   (parity XOR data mates); [Blank_slot] means the handle existed but was
   never written; [Absent] means no such handle (freed, or lost to a
   crash while the card was out). *)
type slot_status = Absent | Blank_slot | Data_slot

type degraded = {
  missing : int;
  mutable st : slot_status A.t;  (* grows as allocation continues *)
  mutable st_len : int;
}

type rebuilding = {
  r_card : int;
  r_st : slot_status A.t;
  r_len : int;  (* slots the rebuild covers; later allocs are live on the fresh manager *)
  mutable r_cursor : int;  (* slots below this are already rebuilt *)
  mutable r_ev : Event_queue.handle option;
  r_started : Time.t;
}

type health_state = Healthy | Degraded of degraded | Rebuilding of rebuilding

type t = {
  striping : Striping.policy;
  config : Manager.config;  (* to mint a fresh manager on reinsert *)
  cards : Manager.t A.t;
  front : Front_cache.t option;  (* [None] = cache off (capacity 0). *)
  front_capacity : int;
  dram : Device.Dram.t;
  engine : Engine.t;
  mutable next_global : int;
  mutable health : health_state;
  (* Parity/degraded traffic, counted at the array layer so client-visible
     stats can subtract redundancy maintenance from the per-card sums. *)
  mutable parity_writes : int;
  mutable parity_reads : int;
  mutable parity_cold : int;
  mutable degraded_writes : int;
  mutable degraded_reads : int;
  mutable degraded_cold : int;
  mutable reconstructed_reads : int;
  mutable rebuilt_blocks : int;
  mutable last_rebuild : Time.span option;
}

let ncards t = A.length t.cards
let striping t = t.striping
let manager t i = t.cards.(i)
let dram t = t.dram
let engine t = t.engine
let block_bytes t = Manager.block_bytes t.cards.(0)
let front_cache_capacity t = t.front_capacity

let card_of_block t b = Striping.card_of t.striping ~ncards:(ncards t) ~block:b
let local_of_block t b = Striping.local_of t.striping ~ncards:(ncards t) ~block:b

let create ?(front_cache_blocks = 0) ~striping cfg ~engine ~flashes ~dram =
  let n = A.length flashes in
  (match Striping.validate striping ~ncards:n with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Array.create: " ^ msg));
  if front_cache_blocks < 0 then
    invalid_arg "Array.create: negative front cache capacity";
  let sector = Device.Flash.sector_bytes flashes.(0) in
  A.iter
    (fun f ->
      if Device.Flash.sector_bytes f <> sector then
        invalid_arg "Array.create: cards must share a sector size")
    flashes;
  let cards =
    A.init n (fun i -> Manager.create ~card:i cfg ~engine ~flash:flashes.(i) ~dram)
  in
  {
    striping;
    config = cfg;
    cards;
    front =
      (if front_cache_blocks = 0 then None
       else Some (Front_cache.create ~capacity_blocks:front_cache_blocks));
    front_capacity = front_cache_blocks;
    dram;
    engine;
    next_global = 0;
    health = Healthy;
    parity_writes = 0;
    parity_reads = 0;
    parity_cold = 0;
    degraded_writes = 0;
    degraded_reads = 0;
    degraded_cold = 0;
    reconstructed_reads = 0;
    rebuilt_blocks = 0;
    last_rebuild = None;
  }

let capacity_blocks t =
  A.fold_left (fun acc m -> acc + Manager.capacity_blocks m) 0 t.cards

(* --- Parity plumbing ------------------------------------------------------ *)

let parity_slot t b = Striping.parity_slot t.striping ~ncards:(ncards t) ~block:b

(* Does the manager hold actual content for this local — a buffered copy
   or a flash copy?  (A Blank block exists but contributes nothing to
   parity and costs nothing to read.) *)
let has_data m l =
  Manager.block_exists m l
  && (Manager.block_is_dirty m l || Manager.segment_of_block m l <> None)

(* Is [(card, local)] currently served by the array's degraded
   bookkeeping rather than the card's manager?  Under [Degraded] every
   slot the missing card ever held; under [Rebuilding] only the
   not-yet-reconstructed window — rebuilt slots (and slots allocated
   after the reinsert) live on the fresh manager. *)
let slot_pending t c l =
  match t.health with
  | Healthy -> false
  | Degraded d -> c = d.missing && l < d.st_len
  | Rebuilding r -> c = r.r_card && l >= r.r_cursor && l < r.r_len

let pending_status t l =
  match t.health with
  | Degraded d -> d.st.(l)
  | Rebuilding r -> r.r_st.(l)
  | Healthy -> assert false

let set_pending_status t l v =
  match t.health with
  | Degraded d -> d.st.(l) <- v
  | Rebuilding r -> r.r_st.(l) <- v
  | Healthy -> assert false

let degraded_push (d : degraded) status =
  if d.st_len = A.length d.st then begin
    let bigger = A.make (max 64 (2 * A.length d.st)) Absent in
    A.blit d.st 0 bigger 0 d.st_len;
    d.st <- bigger
  end;
  d.st.(d.st_len) <- status;
  d.st_len <- d.st_len + 1

(* --- Client operations ----------------------------------------------------

   Every operation is routing arithmetic plus the card's own code path;
   the array-level state is the front cache, the allocation cursor, and
   (under parity) the health machine above. *)

let alloc t =
  let g = t.next_global in
  (* Under parity, opening a stripe allocates its parity strip first, so
     every per-card cursor stays a pure function of the global cursor. *)
  (match Striping.parity_prealloc t.striping ~ncards:(ncards t) ~block:g with
  | None -> ()
  | Some (pc, first_local, count) -> (
    match t.health with
    | Degraded d when d.missing = pc ->
      for _ = 1 to count do
        degraded_push d Blank_slot
      done
    | _ ->
      for i = 0 to count - 1 do
        let l = Manager.alloc t.cards.(pc) in
        if l <> first_local + i then
          Fmt.failwith "Array.alloc: parity card %d handed out local %d, expected %d"
            pc l (first_local + i)
      done));
  t.next_global <- g + 1;
  let c = card_of_block t g in
  (match t.health with
  | Degraded d when d.missing = c -> degraded_push d Blank_slot
  | _ ->
    let l = Manager.alloc t.cards.(c) in
    (* Dense global allocation + dense per-card allocation make the local
       handle a pure function of the global one; everything else here (and
       table-free crash recovery) rests on that. *)
    if l <> local_of_block t g then
      Fmt.failwith "Array.alloc: card %d handed out local %d, expected %d" c l
        (local_of_block t g));
  g

let invalidate_front t b =
  match t.front with None -> () | Some fc -> Front_cache.invalidate fc ~key:b

let count_parity_read t = t.parity_reads <- t.parity_reads + 1

let count_parity_write t =
  t.parity_writes <- t.parity_writes + 1;
  Probe.incr p_parity_writes

(* Parity read-modify-write (the RAID small-write penalty): the parity
   delta needs the old data and the old parity, so a rewrite costs up to
   two extra reads plus the extra parity program.  The parity block's
   metadata may be missing after a crash (parity never gets a global
   handle, so remount padding skips over unlushed parity slots); it is
   revived in place — the new parity supersedes whatever was lost. *)
let rmw_write t ~at b ~c ~l ~pc ~pl =
  let m = t.cards.(c) and pm = t.cards.(pc) in
  if not (Manager.block_exists m l) then
    invalid_arg (Printf.sprintf "Array.write_block: unknown block %d" b);
  let r1 =
    if has_data m l then begin
      count_parity_read t;
      Manager.read_block_at m ~at l
    end
    else at
  in
  if not (Manager.block_exists pm pl) then Manager.revive_block pm pl;
  let r2 =
    if has_data pm pl then begin
      count_parity_read t;
      Manager.read_block_at pm ~at pl
    end
    else at
  in
  let w_data = Manager.write_block_at m ~at:r1 l in
  count_parity_write t;
  let w_parity = Manager.write_block_at pm ~at:(Time.max r1 r2) pl in
  Time.max w_data w_parity

(* Write to a block whose card is out: the data cannot land anywhere, so
   fold the new version into parity instead — new parity = XOR of the new
   data with every surviving data mate of the row (the old parity is not
   needed).  The newest version now lives, reconstructibly, in the parity
   equation; mate reads are threaded (summed), the degraded-write cost. *)
let degraded_data_write t ~at ~skip ~l ~pc ~pl =
  let cursor = ref at in
  A.iteri
    (fun c' m ->
      if c' <> skip && c' <> pc && has_data m l then begin
        count_parity_read t;
        cursor := Manager.read_block_at m ~at:!cursor l
      end)
    t.cards;
  let pm = t.cards.(pc) in
  if not (Manager.block_exists pm pl) then Manager.revive_block pm pl;
  count_parity_write t;
  t.degraded_writes <- t.degraded_writes + 1;
  Manager.write_block_at pm ~at:!cursor pl

let write_block_at t ~at b =
  invalidate_front t b;
  let c = card_of_block t b in
  let l = local_of_block t b in
  match parity_slot t b with
  | None -> Manager.write_block_at t.cards.(c) ~at l
  | Some (pc, pl) ->
    if slot_pending t c l then begin
      (match pending_status t l with
      | Absent ->
        invalid_arg (Printf.sprintf "Array.write_block: unknown block %d" b)
      | Blank_slot | Data_slot -> ());
      set_pending_status t l Data_slot;
      degraded_data_write t ~at ~skip:c ~l ~pc ~pl
    end
    else if slot_pending t pc pl then begin
      (* The parity strip is on the missing (or not-yet-rebuilt) card:
         plain data write, and mark the parity slot stale so the rebuild
         reconstructs it from the row's data. *)
      let fin = Manager.write_block_at t.cards.(c) ~at l in
      set_pending_status t pl Data_slot;
      fin
    end
    else rmw_write t ~at b ~c ~l ~pc ~pl

let write_block t b =
  let now = Engine.now t.engine in
  Time.diff (write_block_at t ~at:now b) now

let dram_read_at ?bytes t ~at =
  let bytes = Option.value bytes ~default:(block_bytes t) in
  Time.add at (Device.Dram.read t.dram ~bytes)

(* Reconstruct local [l] of card [skip] by reading the row's surviving
   members (whole blocks — the XOR needs every sector) in sequence:
   summed cost, the degraded-read penalty. *)
let reconstruct_read_at t ~at ~skip ~l =
  let cursor = ref at in
  A.iteri
    (fun c' m ->
      if c' <> skip && has_data m l then begin
        count_parity_read t;
        cursor := Manager.read_block_at m ~at:!cursor l
      end)
    t.cards;
  !cursor

let read_block_at ?bytes t ~at b =
  let c = card_of_block t b in
  let l = local_of_block t b in
  if slot_pending t c l then begin
    match pending_status t l with
    | Absent -> invalid_arg (Printf.sprintf "Array.read_block: unknown block %d" b)
    | Blank_slot ->
      (* Never-written block: nothing to fetch from any card. *)
      t.degraded_reads <- t.degraded_reads + 1;
      dram_read_at ?bytes t ~at
    | Data_slot ->
      let front_hit =
        match t.front with
        | None -> false
        | Some fc -> Front_cache.lookup fc ~key:b = Front_cache.Hit
      in
      if front_hit then dram_read_at ?bytes t ~at
      else begin
        let fin = reconstruct_read_at t ~at ~skip:c ~l in
        t.degraded_reads <- t.degraded_reads + 1;
        t.reconstructed_reads <- t.reconstructed_reads + 1;
        Probe.incr p_reconstructed;
        (match t.front with
        | Some fc -> Front_cache.insert fc ~key:b
        | None -> ());
        fin
      end
  end
  else begin
    let m = t.cards.(c) in
    match t.front with
    | None -> Manager.read_block_at ?bytes m ~at l
    | Some fc ->
      if not (Manager.block_exists m l) then
        (* Let the card raise its usual error without polluting the cache. *)
        Manager.read_block_at ?bytes m ~at l
      else begin
        match Front_cache.lookup fc ~key:b with
        | Front_cache.Hit -> dram_read_at ?bytes t ~at
        | Front_cache.Miss ->
          let fin = Manager.read_block_at ?bytes m ~at l in
          (* Residency commits only now, after the card read returned —
             a raising read must not leave the handle resident. *)
          Front_cache.insert fc ~key:b;
          fin
      end
  end

let read_block ?bytes t b =
  let now = Engine.now t.engine in
  Time.diff (read_block_at ?bytes t ~at:now b) now

let free_block t b =
  invalidate_front t b;
  let c = card_of_block t b in
  let l = local_of_block t b in
  match parity_slot t b with
  | None -> Manager.free_block t.cards.(c) l
  | Some (pc, pl) ->
    (* Free is an uncharged metadata operation on a single manager; under
       parity it additionally rewrites the parity block (removing the
       freed block's contribution) but reads nothing — the delta is
       computable from the buffered copy being dropped, and charging
       reads for frees would distort the write-path metric this module
       exists to measure. *)
    if slot_pending t c l then begin
      let was =
        match pending_status t l with
        | Absent ->
          invalid_arg (Printf.sprintf "Array.free_block: unknown block %d" b)
        | s -> s
      in
      set_pending_status t l Absent;
      let pm = t.cards.(pc) in
      if was = Data_slot && Manager.block_exists pm pl then begin
        count_parity_write t;
        ignore (Manager.write_block pm pl)
      end
    end
    else if slot_pending t pc pl then begin
      Manager.free_block t.cards.(c) l;
      set_pending_status t pl Data_slot
    end
    else begin
      let had = has_data t.cards.(c) l in
      Manager.free_block t.cards.(c) l;
      if had then begin
        let pm = t.cards.(pc) in
        if not (Manager.block_exists pm pl) then Manager.revive_block pm pl;
        count_parity_write t;
        ignore (Manager.write_block pm pl)
      end
    end

let load_cold t b =
  let c = card_of_block t b in
  let l = local_of_block t b in
  match parity_slot t b with
  | None -> Manager.load_cold t.cards.(c) l
  | Some (pc, pl) ->
    if slot_pending t pc pl then begin
      Manager.load_cold t.cards.(c) l;
      set_pending_status t pl Data_slot
    end
    else begin
      (* The first cold touch of a row also cold-loads its parity block —
         a factory image arrives with parity precomputed — so the row's
         later cold loads are free of parity traffic. *)
      if not (slot_pending t c l) && not (Manager.block_exists t.cards.(c) l)
      then
        invalid_arg (Printf.sprintf "Array.load_cold: unknown block %d" b);
      let pm = t.cards.(pc) in
      if not (has_data pm pl) then begin
        if not (Manager.block_exists pm pl) then Manager.revive_block pm pl;
        t.parity_cold <- t.parity_cold + 1;
        Manager.load_cold pm pl
      end;
      if slot_pending t c l then begin
        (match pending_status t l with
        | Absent ->
          invalid_arg (Printf.sprintf "Array.load_cold: unknown block %d" b)
        | Blank_slot | Data_slot -> ());
        set_pending_status t l Data_slot;
        t.degraded_cold <- t.degraded_cold + 1
      end
      else Manager.load_cold t.cards.(c) l
    end

let flush_all t =
  (* One contiguous drain per card — flushed sectors are grouped by
     destination card, never interleaved across cards — and the drains
     overlap in simulated time (each card programs its own banks), so the
     caller's stall is the slowest card's.  A missing card is skipped:
     its dormant manager's buffer was dropped at detach. *)
  let skip = match t.health with Degraded d -> d.missing | _ -> -1 in
  let now = Engine.now t.engine in
  let groups = ref 0 in
  let worst = ref Time.span_zero in
  A.iteri
    (fun i m ->
      if i <> skip then begin
        let span = Manager.flush_all m in
        if Time.span_to_us span > 0.0 then incr groups;
        worst := Time.max_span !worst span
      end)
    t.cards;
  let worst = !worst in
  if !groups > 0 then begin
    Probe.add p_flush_groups !groups;
    if Probe.timeline_enabled () then
      Probe.span ~name:"array.flush" ~cat:"storage"
        ~args:[ ("card_groups", string_of_int !groups) ]
        ~start:now ~finish:(Time.add now worst) ()
  end;
  worst

(* --- Card eject / reinsert / rebuild -------------------------------------- *)

type eject_report = { lost_buffered : int; degraded_blocks : int }

let pp_eject_report ppf r =
  Fmt.pf ppf "lost_buffered=%d degraded_blocks=%d" r.lost_buffered r.degraded_blocks

let eject_card ?(surprise = false) t ~card =
  (match t.striping with
  | Striping.Parity _ -> ()
  | _ ->
    invalid_arg
      "Array.eject_card: non-redundant striping cannot survive a card loss");
  (match t.health with
  | Healthy -> ()
  | Degraded _ | Rebuilding _ ->
    invalid_arg "Array.eject_card: array is already missing a card");
  if card < 0 || card >= ncards t then
    invalid_arg "Array.eject_card: no such card";
  let m = t.cards.(card) in
  if not surprise then ignore (Manager.flush_all m);
  (* Snapshot what the card held BEFORE detaching: a block still dirty in
     the host-side buffer at a surprise eject is lost as a copy, but its
     parity was updated when it was written, so the newest version stays
     reconstructible — [Data_slot], not a casualty. *)
  let st_len = Manager.next_fresh_block m in
  assert (
    st_len
    = Striping.locals_before t.striping ~ncards:(ncards t) ~card t.next_global);
  let st =
    A.init st_len (fun l ->
        if not (Manager.block_exists m l) then Absent
        else if has_data m l then Data_slot
        else Blank_slot)
  in
  let lost = Manager.detach m in
  let degraded =
    A.fold_left (fun acc s -> if s = Data_slot then acc + 1 else acc) 0 st
  in
  t.health <- Degraded { missing = card; st; st_len };
  Log.info (fun f ->
      f "card %d %s-ejected: %d slots, %d with data, %d buffered lost" card
        (if surprise then "surprise" else "orderly")
        st_len degraded lost);
  { lost_buffered = lost; degraded_blocks = degraded }

let default_rebuild_batch = 32
let default_rebuild_spacing = Time.span_ms 1.0

let rec schedule_rebuild t (r : rebuilding) ~batch ~spacing ~at =
  r.r_ev <-
    Some (Engine.schedule t.engine ~at (fun _ -> rebuild_step t r ~batch ~spacing))

(* One rebuild quantum: reconstruct up to [batch] slots onto the fresh
   card, then yield the engine back to foreground traffic and reschedule.
   Slots that already exist on the fresh manager (the crash-recovered
   prefix of an interrupted rebuild) are skipped. *)
and rebuild_step t (r : rebuilding) ~batch ~spacing =
  r.r_ev <- None;
  let fresh = t.cards.(r.r_card) in
  let now = Engine.now t.engine in
  let cursor = ref now in
  let n = min batch (r.r_len - r.r_cursor) in
  for i = 0 to n - 1 do
    let l = r.r_cursor + i in
    match r.r_st.(l) with
    | Absent -> ()
    | Blank_slot ->
      if not (Manager.block_exists fresh l) then Manager.revive_block fresh l
    | Data_slot ->
      if not (Manager.block_exists fresh l) then begin
        A.iteri
          (fun c' m ->
            if c' <> r.r_card && has_data m l then begin
              count_parity_read t;
              cursor := Manager.read_block_at m ~at:!cursor l
            end)
          t.cards;
        Manager.revive_block fresh l;
        t.parity_cold <- t.parity_cold + 1;
        Manager.load_cold fresh l;
        t.rebuilt_blocks <- t.rebuilt_blocks + 1;
        Probe.incr p_rebuilt
      end
  done;
  r.r_cursor <- r.r_cursor + n;
  if r.r_cursor >= r.r_len then begin
    t.health <- Healthy;
    let span = Time.diff (Engine.now t.engine) r.r_started in
    t.last_rebuild <- Some span;
    Log.info (fun f ->
        f "card %d rebuilt (%d slots) in %a" r.r_card r.r_len Time.pp_span span)
  end
  else
    schedule_rebuild t r ~batch ~spacing
      ~at:(Time.max !cursor (Time.add now spacing))

let reinsert_card ?(batch = default_rebuild_batch)
    ?(spacing = default_rebuild_spacing) t ~card =
  let d =
    match t.health with
    | Degraded d when d.missing = card -> d
    | Degraded d ->
      invalid_arg
        (Printf.sprintf "Array.reinsert_card: card %d is present (card %d is out)"
           card d.missing)
    | Healthy | Rebuilding _ ->
      invalid_arg "Array.reinsert_card: array is not degraded"
  in
  if batch <= 0 then invalid_arg "Array.reinsert_card: batch must be positive";
  (* The returning card is blank media — a replacement, or the same card
     wiped — and everything it held is reconstructed from the survivors. *)
  let flash = Manager.flash t.cards.(card) in
  Device.Flash.factory_reset flash;
  let fresh = Manager.create ~card t.config ~engine:t.engine ~flash ~dram:t.dram in
  Manager.reserve_blocks fresh ~next:d.st_len;
  t.cards.(card) <- fresh;
  let r =
    {
      r_card = card;
      r_st = d.st;
      r_len = d.st_len;
      r_cursor = 0;
      r_ev = None;
      r_started = Engine.now t.engine;
    }
  in
  if d.st_len = 0 then begin
    (* Nothing was ever striped onto this card: the rebuild covers zero
       slots, so complete immediately rather than burning one spacing
       tick on an empty rebuild_step. *)
    t.health <- Healthy;
    t.last_rebuild <- Some Time.span_zero;
    Log.info (fun f -> f "card %d reinserted; nothing to rebuild" card)
  end
  else begin
    t.health <- Rebuilding r;
    Log.info (fun f -> f "card %d reinserted; rebuilding %d slots" card d.st_len);
    schedule_rebuild t r ~batch ~spacing ~at:(Engine.now t.engine)
  end

(* --- Introspection -------------------------------------------------------- *)

let health t =
  match t.health with
  | Healthy -> `Healthy
  | Degraded d -> `Degraded d.missing
  | Rebuilding r -> `Rebuilding r.r_card

type parity_stats = {
  parity_writes : int;
  parity_reads : int;
  parity_cold_loads : int;
  degraded_writes : int;
  degraded_reads : int;
  degraded_cold_loads : int;
  reconstructed_reads : int;
  rebuilt_blocks : int;
  last_rebuild : Time.span option;
}

let parity_stats (t : t) =
  {
    parity_writes = t.parity_writes;
    parity_reads = t.parity_reads;
    parity_cold_loads = t.parity_cold;
    degraded_writes = t.degraded_writes;
    degraded_reads = t.degraded_reads;
    degraded_cold_loads = t.degraded_cold;
    reconstructed_reads = t.reconstructed_reads;
    rebuilt_blocks = t.rebuilt_blocks;
    last_rebuild = t.last_rebuild;
  }

let pp_parity_stats ppf s =
  Fmt.pf ppf
    "parity: writes=%d reads=%d cold=%d | degraded: writes=%d reads=%d \
     reconstructed=%d | rebuilt=%d%a"
    s.parity_writes s.parity_reads s.parity_cold_loads s.degraded_writes
    s.degraded_reads s.reconstructed_reads s.rebuilt_blocks
    (fun ppf -> function
      | None -> ()
      | Some span -> Fmt.pf ppf " in %a" Time.pp_span span)
    s.last_rebuild

let card_stats t i = Manager.stats t.cards.(i)
let wear_evenness t i = Manager.wear_evenness t.cards.(i)

let diff_stats (t : t) =
  Stdlib.Array.fold_left
    (fun acc card ->
      match (acc, Manager.diff_stats card) with
      | None, s | s, None -> s
      | Some a, Some b -> Some (Diff_log.add_stats a b))
    None t.cards
let front_cache_hits t = match t.front with None -> 0 | Some fc -> Front_cache.hits fc
let front_cache_misses t =
  match t.front with None -> 0 | Some fc -> Front_cache.misses fc

(* A pending data slot's durable home is its parity block (the row can
   be reconstructed as long as the parity copy survives), so the
   introspection surface reports the parity block's residency for it:
   dirty while the parity update sits in a surviving card's buffer, and
   the parity block's segment once it is flushed.  This keeps the fsck
   identity — every reachable block is buffered or in flash — true
   while a card is out. *)
let parity_home_manager t l =
  let pc = Striping.parity_card_of_local t.striping ~ncards:(ncards t) ~local:l in
  t.cards.(pc)

(* The [live_blocks]/[dirty_blocks] gauges as the *client* sees them
   under parity: parity slots are the array's own and invisible (the
   namespace can never reach them), and a pending slot is charged to its
   parity home — dirty while the parity update is buffered, live once it
   is flushed.  Recounted from the slot map because the per-card gauges
   drift from the client's view the moment parity blocks exist (and,
   while a card is out, the dormant manager's frozen gauges ignore
   degraded frees).  O(locals); only the parity policy pays it. *)
let client_gauges (t : t) =
  let n = ncards t in
  let live = ref 0 and dirty = ref 0 in
  for c = 0 to n - 1 do
    let m = t.cards.(c) in
    let bound =
      match t.health with
      | Degraded d when c = d.missing -> d.st_len
      | Healthy | Degraded _ | Rebuilding _ -> Manager.next_fresh_block m
    in
    for l = 0 to bound - 1 do
      if Striping.parity_card_of_local t.striping ~ncards:n ~local:l <> c then
        if slot_pending t c l then (
          match pending_status t l with
          | Data_slot ->
            let pm = parity_home_manager t l in
            if Manager.block_is_dirty pm l then incr dirty
            else if Manager.segment_of_block pm l <> None then incr live
          | Blank_slot | Absent -> ())
        else if Manager.block_exists m l then
          if Manager.block_is_dirty m l then incr dirty
          else if Manager.segment_of_block m l <> None then incr live
    done
  done;
  (!live, !dirty)

let stats (t : t) =
  let sum f = A.fold_left (fun acc m -> acc + f (Manager.stats m)) 0 t.cards in
  (* The per-card sums include parity maintenance and reconstruction
     traffic; subtract what the array itself issued and add back the
     client operations that never reached a card (front-cache hits,
     degraded ops served from parity). *)
  let writes = sum (fun s -> s.Manager.client_writes) - t.parity_writes + t.degraded_writes in
  let flushed = sum (fun s -> s.Manager.blocks_flushed) in
  let cleaned = sum (fun s -> s.Manager.blocks_cleaned) in
  let live_blocks, dirty_blocks =
    match t.striping with
    | Striping.Parity _ -> client_gauges t
    | _ ->
      ( sum (fun s -> s.Manager.live_blocks),
        sum (fun s -> s.Manager.dirty_blocks) )
  in
  {
    Manager.client_writes = writes;
    client_reads =
      sum (fun s -> s.Manager.client_reads)
      - t.parity_reads + front_cache_hits t + t.degraded_reads;
    absorbed_writes = sum (fun s -> s.Manager.absorbed_writes);
    cancelled_blocks = sum (fun s -> s.Manager.cancelled_blocks);
    blocks_flushed = flushed;
    blocks_cleaned = cleaned;
    cold_loads = sum (fun s -> s.Manager.cold_loads) - t.parity_cold + t.degraded_cold;
    hot_retained = 0;
    cleanings = sum (fun s -> s.Manager.cleanings);
    dirty_blocks;
    free_segments = sum (fun s -> s.Manager.free_segments);
    retired_segments = sum (fun s -> s.Manager.retired_segments);
    live_blocks;
    write_reduction =
      (if writes = 0 then 0.0
       else 1.0 -. (float_of_int flushed /. float_of_int writes));
    write_amplification =
      Cleaner.write_amplification ~blocks_written:(flushed + cleaned)
        ~blocks_flushed:flushed;
  }

let segment_of_block t b =
  let c = card_of_block t b and l = local_of_block t b in
  if slot_pending t c l then
    match pending_status t l with
    | Data_slot ->
      let pm = parity_home_manager t l in
      if Manager.block_is_dirty pm l then None else Manager.segment_of_block pm l
    | Blank_slot | Absent -> None
  else Manager.segment_of_block t.cards.(c) l

let block_is_dirty t b =
  let c = card_of_block t b and l = local_of_block t b in
  if slot_pending t c l then
    match pending_status t l with
    | Data_slot -> Manager.block_is_dirty (parity_home_manager t l) l
    | Blank_slot | Absent -> false
  else Manager.block_is_dirty t.cards.(c) l

let block_exists t b =
  b >= 0
  &&
  let c = card_of_block t b and l = local_of_block t b in
  if slot_pending t c l then pending_status t l <> Absent
  else Manager.block_exists t.cards.(c) l

let reset_traffic (t : t) =
  A.iter Manager.reset_traffic t.cards;
  t.parity_writes <- 0;
  t.parity_reads <- 0;
  t.parity_cold <- 0;
  t.degraded_writes <- 0;
  t.degraded_reads <- 0;
  t.degraded_cold <- 0;
  t.reconstructed_reads <- 0;
  t.rebuilt_blocks <- 0;
  match t.front with None -> () | Some fc -> Front_cache.reset_counters fc

(* --- Crash recovery ------------------------------------------------------- *)

(* What survives of a pending slot after total power loss: the degraded
   bookkeeping lived in DRAM, so it is only as good as what flash kept.
   A blank slot's metadata existed nowhere durable — gone.  A data slot
   survives iff its recovery source survives: the remounted parity block
   for a data slot, the surviving data mates for a stale parity slot
   (those are re-derived at rebuild, so stale parity stays [Data_slot]). *)
let filter_slot striping cards ~n ~mc ~l status =
  match status with
  | Absent | Blank_slot -> Absent
  | Data_slot ->
    let pc = Striping.parity_card_of_local striping ~ncards:n ~local:l in
    if pc = mc then Data_slot
    else if Manager.block_exists cards.(pc) l then Data_slot
    else Absent

let crash_and_remount t =
  let n = ncards t in
  (* A rebuild in flight holds an engine event over the pre-crash array:
     cancel it; the remounted array reschedules its own. *)
  (match t.health with
  | Rebuilding r -> (
    match r.r_ev with
    | Some ev ->
      Engine.cancel t.engine ev;
      r.r_ev <- None
    | None -> ())
  | _ -> ());
  let missing = match t.health with Degraded d -> Some d.missing | _ -> None in
  (* Every present card remounts from its own headers; the scans overlap
     in simulated time (independent devices), so recovery latency is the
     slowest card's scan, not the sum.  A missing card stays out: its
     dormant manager rides along untouched. *)
  let worst = ref Time.span_zero in
  let scanned = ref 0 and live = ref 0 and stale = ref 0 and lost = ref 0 in
  let cards =
    A.mapi
      (fun c m ->
        if missing = Some c then m
        else begin
          let fresh, span, r = Manager.crash_and_remount m in
          worst := Time.max_span !worst span;
          scanned := !scanned + r.Manager.sectors_scanned;
          live := !live + r.Manager.live_recovered;
          stale := !stale + r.Manager.stale_discarded;
          lost := !lost + r.Manager.buffered_lost;
          fresh
        end)
      t.cards
  in
  (* The front cache was DRAM: gone.  Reuse the object (counters are
     cumulative traffic, reset via [reset_traffic]) with residency wiped. *)
  (match t.front with None -> () | Some fc -> Front_cache.clear fc);
  (* Rebuild the global cursor: the highest surviving global handle is on
     whichever card kept the deepest local cursor.  (Not [global_of]: a
     parity slot has no global handle, but its existence still implies
     its stripe had opened.) *)
  let next_global =
    A.to_list cards
    |> List.mapi (fun c m ->
           if missing = Some c then 0
           else
             let nb = Manager.next_fresh_block m in
             if nb = 0 then 0
             else
               Striping.min_global_cursor t.striping ~ncards:n ~card:c
                 ~local:(nb - 1))
    |> List.fold_left max 0
  in
  (* A flushed parity block is durable evidence its row saw a write —
     so the row's first data member was allocated, even when that member
     lived on the missing card and its only surviving copy *is* the
     parity.  Without this the recovered cursor (and with it the
     degraded slot map) stops short of reconstructible blocks whose row
     never advanced any present card's own cursor. *)
  let next_global =
    match t.striping with
    | Striping.Parity _ ->
      let ng = ref next_global in
      A.iteri
        (fun c m ->
          if missing <> Some c then
            for l = 0 to Manager.next_fresh_block m - 1 do
              if
                Striping.parity_card_of_local t.striping ~ncards:n ~local:l = c
                && has_data m l
              then begin
                let first = if c > 0 then 0 else 1 in
                let g = Striping.global_of t.striping ~ncards:n ~card:first ~local:l in
                if g + 1 > !ng then ng := g + 1
              end
            done)
        cards;
      !ng
    | Striping.Round_robin _ -> next_global
  in
  (* Cards that lost never-flushed tail allocations restart their local
     cursor short of the global one; pad them so local handles stay a pure
     function of global ones. *)
  A.iteri
    (fun c m ->
      if missing <> Some c then
        Manager.reserve_blocks m
          ~next:(Striping.locals_before t.striping ~ncards:n ~card:c next_global))
    cards;
  let health =
    match t.health with
    | Healthy -> Healthy
    | Degraded d ->
      let st_len =
        Striping.locals_before t.striping ~ncards:n ~card:d.missing next_global
      in
      let st =
        A.init (max st_len 1) (fun l ->
            if l < st_len && l < d.st_len then
              filter_slot t.striping cards ~n ~mc:d.missing ~l d.st.(l)
            else Absent)
      in
      Degraded { missing = d.missing; st; st_len }
    | Rebuilding r ->
      (* The reinserted card is physically present and remounted like the
         others; whatever the rebuild had flushed onto it survived, and
         the restarted rebuild skips those slots. *)
      let r_len =
        min r.r_len
          (Striping.locals_before t.striping ~ncards:n ~card:r.r_card next_global)
      in
      let st =
        A.init (max r_len 1) (fun l ->
            if l >= r_len || l >= r.r_len then Absent
            else if
              r.r_st.(l) = Data_slot && Manager.block_exists cards.(r.r_card) l
            then Data_slot
            else filter_slot t.striping cards ~n ~mc:r.r_card ~l r.r_st.(l))
      in
      if r_len = 0 then Healthy
      else
        Rebuilding
          {
            r_card = r.r_card;
            r_st = st;
            r_len;
            r_cursor = 0;
            r_ev = None;
            r_started = Engine.now t.engine;
          }
  in
  let fresh = { t with cards; next_global; health } in
  (match health with
  | Rebuilding r ->
    schedule_rebuild fresh r ~batch:default_rebuild_batch
      ~spacing:default_rebuild_spacing ~at:(Engine.now t.engine)
  | Healthy | Degraded _ -> ());
  let report =
    {
      Manager.sectors_scanned = !scanned;
      live_recovered = !live;
      stale_discarded = !stale;
      buffered_lost = !lost;
    }
  in
  Log.info (fun m ->
      m "array remount (%d cards%s): %a" n
        (match missing with
        | Some c -> Printf.sprintf ", card %d out" c
        | None -> "")
        Manager.pp_remount_report report);
  (fresh, !worst, report)
