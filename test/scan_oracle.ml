(* The storage manager's decisions, recomputed by full scans.

   The manager answers every allocation and cleaning decision from
   per-bank indexes and keeps O(1) counters for its statistics.  This
   module is the reference those must match: the scan-per-decision
   implementation the indexes replaced — the wear policies' [pick_free],
   [relocation_victim] and [evenness] and the cleaner's [score] and
   [select] below — over the manager's segment array.  [check] compares
   every decision and count the manager would report right now, and
   holds the sector headers on the device against the manager's slots
   and blocks; the differential tests call it after every operation. *)

open Sim
module M = Storage.Manager
module Seg = Storage.Segment
module Wear = Storage.Wear

(* --- Wear leveling --------------------------------------------------------- *)

let fold_free f acc segments =
  Array.fold_left
    (fun acc seg -> if Seg.state seg = Seg.Free then f acc seg else acc)
    acc segments

(* The Free segment to open next.  With [for_cold] (data the cleaner
   judged long-lived), [Static] picks the most-worn free segment; hot
   (default) allocation picks the least-worn under [Dynamic] and
   [Static], and first fit under [None_].  The first in id order on
   ties. *)
let pick_free ?(for_cold = false) policy ~erase_count segments =
  let least_worn () =
    fold_free
      (fun best seg ->
        match best with
        | Some b when erase_count b <= erase_count seg -> best
        | Some _ | None -> Some seg)
      None segments
  in
  let most_worn () =
    fold_free
      (fun best seg ->
        match best with
        | Some b when erase_count b >= erase_count seg -> best
        | Some _ | None -> Some seg)
      None segments
  in
  match policy with
  | Wear.None_ ->
    fold_free
      (fun best seg -> match best with None -> Some seg | some -> some)
      None segments
  | Wear.Dynamic -> least_worn ()
  | Wear.Static _ -> if for_cold then most_worn () else least_worn ()

(* Wear statistics over the segments' erase counts in exact integer form:
   a count, a total, a sum of squares and the number of segments at each
   erase level, whose least and greatest keys are the min and the max:
   the reference for the manager's [Wear.evenness] scan and for the
   running erase total and maximum behind its [Static] trigger. *)
module Int_map = Map.Make (Int)

type acc = {
  mutable count : int;
  mutable total : int;
  mutable sum_sq : int;
  mutable levels : int Int_map.t;
}

let acc_add a c =
  a.count <- a.count + 1;
  a.total <- a.total + c;
  a.sum_sq <- a.sum_sq + (c * c);
  a.levels <- Int_map.update c (function None -> Some 1 | Some n -> Some (n + 1)) a.levels

(* Every segment's current erase count, folded into one accumulator. *)
let acc_of_scan ~erase_count segments =
  let a = { count = 0; total = 0; sum_sq = 0; levels = Int_map.empty } in
  Array.iter (fun seg -> acc_add a (erase_count seg)) segments;
  a

let max_erases a = if a.count = 0 then 0 else fst (Int_map.max_binding a.levels)

let evenness_of_acc a : Wear.evenness =
  if a.count = 0 then
    { min_erases = 0; max_erases = 0; mean_erases = 0.0; stddev_erases = 0.0 }
  else begin
    let n = float_of_int a.count in
    let variance =
      if a.count < 2 then 0.0
      else
        Float.max 0.0
          ((float_of_int a.sum_sq -. (float_of_int a.total *. float_of_int a.total /. n))
          /. float_of_int (a.count - 1))
    in
    { min_erases = fst (Int_map.min_binding a.levels); max_erases = max_erases a;
      mean_erases = float_of_int a.total /. n; stddev_erases = sqrt variance }
  end

let evenness ~erase_count segments = evenness_of_acc (acc_of_scan ~erase_count segments)

(* Under [Static], when the spread over all segments' erase counts
   exceeds the threshold, the least-worn eligible Closed segment, the
   first in id order on ties; [None] otherwise. *)
let relocation_victim policy ~erase_count ~eligible segments =
  match policy with
  | Wear.None_ | Wear.Dynamic -> None
  | Wear.Static { spread_threshold } ->
    let a = acc_of_scan ~erase_count segments in
    if
      not
        (Wear.spread_exceeds ~max_erases:(max_erases a) ~total_erases:a.total
           ~segments:a.count ~spread_threshold)
    then None
    else
      Array.fold_left
        (fun best seg ->
          if Seg.state seg <> Seg.Closed || not (eligible seg) then best
          else
            match best with
            | Some b when erase_count b <= erase_count seg -> best
            | Some _ | None -> Some seg)
        None segments

(* --- Cleaning -------------------------------------------------------------- *)

(* Desirability of cleaning [seg] under [policy] (higher = better
   victim), from the segment itself.  [Storage.Seg_index] computes the
   cost-benefit score from its own keys; it must match this one float
   for float. *)
let score policy ~now seg =
  let u = Seg.utilization seg in
  match policy with
  | Storage.Cleaner.Greedy -> 1.0 -. u
  | Storage.Cleaner.Cost_benefit ->
    let age =
      Time.span_to_s (Time.diff (Time.max now (Seg.last_touched seg)) (Seg.last_touched seg))
    in
    (* +1s keeps brand-new segments from scoring zero across the board. *)
    (age +. 1.0) *. (1.0 -. u) /. (1.0 +. u)

(* The best eligible Closed segment, the first in id order on equal
   scores, or [None].  Full segments are eligible (static wear leveling
   may force them); their score puts them last. *)
let select policy ~now ~eligible segments =
  Array.fold_left
    (fun best seg ->
      if Seg.state seg <> Seg.Closed || not (eligible seg) then best
      else begin
        let s = score policy ~now seg in
        match best with
        | Some (_, best_score) when best_score >= s -> best
        | Some _ | None -> Some (seg, s)
      end)
    None segments
  |> Option.map fst

(* The manager's state as the scans read it. *)
type view = {
  cfg : M.config;
  flash : Device.Flash.t;
  segments : Seg.t array;
  retired : bool array;
  segs_per_bank : int;
}

(* A segment is out of service once wear-out claims any of its sectors:
   the device refuses to program a bad one. *)
let worn flash seg =
  List.exists
    (fun slot -> Device.Flash.is_bad flash ~sector:(Seg.sector_of_slot seg slot))
    (List.init (Seg.nslots seg) Fun.id)

let view cfg m =
  let segments = M.segments m in
  let flash = M.flash m in
  {
    cfg;
    flash;
    segments;
    retired = Array.map (worn flash) segments;
    segs_per_bank = Array.length segments / Device.Flash.nbanks flash;
  }

let bank_of v seg = Seg.id seg / v.segs_per_bank
let erase_count v seg = Device.Flash.erase_count v.flash ~sector:(Seg.first_sector seg)
let in_service v seg = not v.retired.(Seg.id seg)

let allowed v purpose seg =
  Storage.Banks.allowed v.cfg.M.banking ~nbanks:(Device.Flash.nbanks v.flash) purpose
    ~bank:(bank_of v seg)

(* Free segments (in the purpose's banks if [restrict]), narrowed to the
   least-busy bank, then the wear policy's pick among them. *)
let free_pick v ~purpose ~restrict =
  let candidates =
    List.filter
      (fun seg ->
        Seg.state seg = Seg.Free
        && in_service v seg
        && ((not restrict) || allowed v purpose seg))
      (Array.to_list v.segments)
  in
  let busy seg = Device.Flash.bank_busy_until v.flash ~bank:(bank_of v seg) in
  match candidates with
  | [] -> None
  | first :: _ ->
    let least =
      List.fold_left (fun acc seg -> Time.min acc (busy seg)) (busy first) candidates
    in
    let in_least = List.filter (fun seg -> Time.equal (busy seg) least) candidates in
    let for_cold = purpose <> Storage.Banks.Fresh_write in
    pick_free ~for_cold v.cfg.M.wear ~erase_count:(erase_count v) (Array.of_list in_least)
    |> Option.map Seg.id

(* A due wear-leveling relocation first, else the cleaner's choice. *)
let victim v ~now ~purpose =
  let eligible seg =
    in_service v seg && match purpose with None -> true | Some p -> allowed v p seg
  in
  (match
     relocation_victim v.cfg.M.wear ~erase_count:(erase_count v) ~eligible v.segments
   with
  | Some seg -> Some seg
  | None -> select v.cfg.M.cleaner ~now ~eligible v.segments)
  |> Option.map Seg.id

let count v f = Array.fold_left (fun n seg -> n + f seg) 0 v.segments

(* With diff logging on, [stats.live_blocks] counts blocks, not log slots:
   a chain's deltas, and the base page of a chained block whose newest
   data is dirty, occupy slots without adding a block.  A dirty block
   reports a flash location only when such a base exists. *)
let chain_slots m =
  List.fold_left
    (fun n b ->
      n + M.delta_chain_length m b
      + if M.block_is_dirty m b && M.location_of_block m b <> None then 1 else 0)
    0 (M.known_blocks m)

let purposes = Storage.Banks.[ Fresh_write; Clean_out; Cold_load ]

let purpose_name = function
  | Storage.Banks.Fresh_write -> "fresh"
  | Storage.Banks.Clean_out -> "clean-out"
  | Storage.Banks.Cold_load -> "cold"

let pp_id = Fmt.(option ~none:(any "none") int)

(* --- Headers ------------------------------------------------------------------ *)

(* What a mount would read back, against what the manager holds:
   - every live slot's sector carries a live header naming its block: a
     full page (position -1) at the block's reported location, otherwise
     a delta record at a position inside the block's chain;
   - every other live header is a full page, the rollback copy of a dirty
     block;
   - at most one live full-page header exists per block, and at most one
     live delta header per (block, position). *)
let header_errors m =
  let flash = M.flash m in
  let errors = ref [] in
  let error fmt = Fmt.kstr (fun e -> errors := e :: !errors) fmt in
  let in_live_slot = Array.make (Device.Flash.nsectors flash) false in
  Array.iter
    (fun seg ->
      for slot = 0 to Seg.used_slots seg - 1 do
        let b = Seg.block_at seg slot in
        if b >= 0 then begin
          let sector = Seg.sector_of_slot seg slot in
          let pos = Device.Flash.header_pos flash ~sector in
          in_live_slot.(sector) <- true;
          if
            not
              (Device.Flash.header_live flash ~sector
              && Device.Flash.header_block flash ~sector = b)
          then error "sector %d: live slot of block %d without its live header" sector b
          else if M.location_of_block m b = Some (Seg.id seg, slot) then begin
            if pos <> -1 then error "sector %d: block %d's home has position %d" sector b pos
          end
          else if pos < 0 || pos >= M.delta_chain_length m b then
            error "sector %d: block %d's record has position %d, chain length %d" sector b
              pos (M.delta_chain_length m b)
        end
      done)
    (M.segments m);
  let seen = Hashtbl.create 64 in
  for sector = 0 to Device.Flash.nsectors flash - 1 do
    if Device.Flash.header_live flash ~sector then begin
      let b = Device.Flash.header_block flash ~sector in
      let pos = Device.Flash.header_pos flash ~sector in
      if Hashtbl.mem seen (b, pos) then
        error "sector %d: a second live header of block %d at position %d" sector b pos;
      Hashtbl.replace seen (b, pos) ();
      if
        (not in_live_slot.(sector))
        && not (pos = -1 && M.block_exists m b && M.block_is_dirty m b)
      then error "sector %d: live header of block %d is no dirty block's rollback copy" sector b
    end
  done;
  List.rev !errors

let pp_evenness ppf (e : Wear.evenness) =
  Fmt.pf ppf "min %d max %d mean %h sd %h" e.min_erases e.max_erases e.mean_erases
    e.stddev_erases

(* [Ok ()] when the manager agrees with the scans under [cfg] (normally the
   manager's own config), else [Error] naming every disagreement. *)
let check cfg m =
  let v = view cfg m in
  let errors = ref [] in
  let expect what pp ~manager ~scan =
    if manager <> scan then
      errors := Fmt.str "%s: manager %a, scan %a" what pp manager pp scan :: !errors
  in
  List.iter
    (fun purpose ->
      List.iter
        (fun restrict ->
          expect
            (Fmt.str "free pick (%s, restrict %b)" (purpose_name purpose) restrict)
            pp_id
            ~manager:(M.next_free_segment m ~purpose ~restrict)
            ~scan:(free_pick v ~purpose ~restrict))
        [ true; false ])
    purposes;
  let now = Engine.now (M.engine m) in
  List.iter
    (fun purpose ->
      expect
        (Fmt.str "victim (%s)" (Option.fold ~none:"any" ~some:purpose_name purpose))
        pp_id ~manager:(M.next_victim m ~purpose) ~scan:(victim v ~now ~purpose))
    (None :: List.map Option.some purposes);
  let stats = M.stats m in
  expect "free segments" Fmt.int ~manager:stats.M.free_segments
    ~scan:
      (count v (fun seg -> if in_service v seg && Seg.state seg = Seg.Free then 1 else 0));
  expect "retired segments" Fmt.int ~manager:stats.M.retired_segments
    ~scan:(count v (fun seg -> if in_service v seg then 0 else 1));
  expect "capacity" Fmt.int ~manager:(M.capacity_blocks m)
    ~scan:(count v (fun seg -> if in_service v seg then Seg.nslots seg else 0));
  expect "live blocks" Fmt.int ~manager:stats.M.live_blocks
    ~scan:(count v Seg.live_count - chain_slots m);
  (* Every block's reported flash copy is a live slot holding that block. *)
  List.iter
    (fun b ->
      match M.location_of_block m b with
      | Some (seg, slot) ->
        expect (Fmt.str "placement of block %d" b) Fmt.int ~manager:b
          ~scan:(Seg.block_at v.segments.(seg) slot)
      | None -> ())
    (M.known_blocks m);
  (* [wear_evenness] fails if [Static]'s running erase total or maximum
     ran apart from the flash. *)
  (match M.wear_evenness m with
  | e ->
    expect "wear evenness" pp_evenness ~manager:e
      ~scan:(evenness ~erase_count:(erase_count v) v.segments)
  | exception Failure msg -> errors := msg :: !errors);
  errors := List.rev_append (header_errors m) !errors;
  match List.rev !errors with [] -> Ok () | es -> Error (String.concat "; " es)
