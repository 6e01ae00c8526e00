(* [Storage.Array] (the card array) would shadow the stdlib inside this library. *)
module Array = Stdlib.Array
module Int_map = Map.Make (Int)
module Int_set = Set.Make (Int)

module Bucketed = struct
  type t = {
    mutable buckets : Int_set.t Int_map.t;
    mutable size : int;
  }

  let create () = { buckets = Int_map.empty; size = 0 }
  let size t = t.size

  let mem t ~key id =
    match Int_map.find_opt key t.buckets with
    | None -> false
    | Some set -> Int_set.mem id set

  let add t ~key id =
    let set =
      match Int_map.find_opt key t.buckets with
      | None -> Int_set.empty
      | Some set ->
        if Int_set.mem id set then
          invalid_arg
            (Printf.sprintf "Seg_index.Bucketed.add: id %d already under key %d" id key);
        set
    in
    t.buckets <- Int_map.add key (Int_set.add id set) t.buckets;
    t.size <- t.size + 1

  let remove t ~key id =
    match Int_map.find_opt key t.buckets with
    | None ->
      invalid_arg (Printf.sprintf "Seg_index.Bucketed.remove: no bucket for key %d" key)
    | Some set ->
      if not (Int_set.mem id set) then
        invalid_arg
          (Printf.sprintf "Seg_index.Bucketed.remove: id %d not under key %d" id key);
      let set = Int_set.remove id set in
      t.buckets <-
        (if Int_set.is_empty set then Int_map.remove key t.buckets
         else Int_map.add key set t.buckets);
      t.size <- t.size - 1

  let min_entry t =
    match Int_map.min_binding_opt t.buckets with
    | None -> None
    | Some (key, set) -> Some (key, Int_set.min_elt set)

  let max_entry t =
    match Int_map.max_binding_opt t.buckets with
    | None -> None
    | Some (key, set) -> Some (key, Int_set.min_elt set)
end

(* Cost-benefit candidates: per bank and live count, a binary min-heap of
   closed segment ids keyed by (last-touched ns, id), in an int array that
   doubles when full and never shrinks, so updates allocate only while a
   heap outgrows its largest size so far.  [pos] (the id's index within
   its heap, or [-1]) and [lt] are indexed by segment id. *)
type aged = {
  nslots : int;
  heaps : int array array; (* heap [h = bank * (nslots + 1) + live] *)
  size : int array;
  pos : int array;
  lt : int array;
}

let aged_create ~nbanks ~nsegments ~nslots =
  let nheaps = nbanks * (nslots + 1) in
  {
    nslots;
    heaps = Array.make nheaps [||];
    size = Array.make nheaps 0;
    pos = Array.make nsegments (-1);
    lt = Array.make nsegments 0;
  }

let heap_of a ~bank ~live =
  if live < 0 || live > a.nslots then
    invalid_arg (Printf.sprintf "Seg_index: live count %d out of range" live);
  (bank * (a.nslots + 1)) + live

(* Slots [i] and [j] of [heap] in (lt, id) order. *)
let precedes a heap i j =
  let x = heap.(i) and y = heap.(j) in
  a.lt.(x) < a.lt.(y) || (a.lt.(x) = a.lt.(y) && x < y)

let place a heap i id =
  heap.(i) <- id;
  a.pos.(id) <- i

let swap a heap i j =
  let x = heap.(i) in
  place a heap i heap.(j);
  place a heap j x

let rec sift_up a heap i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if precedes a heap i parent then begin
      swap a heap i parent;
      sift_up a heap parent
    end
  end

let rec sift_down a heap ~n i =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && precedes a heap (l + 1) l then l + 1 else l in
    if precedes a heap c i then begin
      swap a heap c i;
      sift_down a heap ~n c
    end
  end

let aged_add a ~bank ~id ~live ~lt_ns =
  let h = heap_of a ~bank ~live in
  if a.pos.(id) >= 0 then
    invalid_arg (Printf.sprintf "Seg_index: id %d already indexed by age" id);
  let n = a.size.(h) in
  if n = Array.length a.heaps.(h) then begin
    let grown = Array.make (Int.max 4 (2 * n)) 0 in
    Array.blit a.heaps.(h) 0 grown 0 n;
    a.heaps.(h) <- grown
  end;
  a.lt.(id) <- lt_ns;
  a.size.(h) <- n + 1;
  place a a.heaps.(h) n id;
  sift_up a a.heaps.(h) n

let aged_remove a ~bank ~id ~live ~lt_ns =
  let h = heap_of a ~bank ~live in
  let heap = a.heaps.(h) in
  let i = a.pos.(id) in
  if i < 0 || i >= a.size.(h) || heap.(i) <> id || a.lt.(id) <> lt_ns then
    invalid_arg
      (Printf.sprintf "Seg_index: id %d not indexed at live %d, %d ns" id live lt_ns);
  let n = a.size.(h) - 1 in
  a.size.(h) <- n;
  a.pos.(id) <- -1;
  if i < n then begin
    place a heap i heap.(n);
    sift_down a heap ~n i;
    sift_up a heap i
  end

type t = {
  nbanks : int;
  wear_keyed : bool;
  track_live : bool;
  track_erase : bool;
  track_age : bool;
  free : Bucketed.t array;
  by_live : Bucketed.t array;
  by_erase : Bucketed.t array;
  by_age : aged;
  mutable free_total : int;
}

let create ~nbanks ~nsegments ~nslots ~wear_keyed ~track_live ~track_erase ~track_age =
  if nbanks < 1 then invalid_arg "Seg_index.create: nbanks < 1";
  {
    nbanks;
    wear_keyed;
    track_live;
    track_erase;
    track_age;
    free = Array.init nbanks (fun _ -> Bucketed.create ());
    by_live = Array.init nbanks (fun _ -> Bucketed.create ());
    by_erase = Array.init nbanks (fun _ -> Bucketed.create ());
    by_age = aged_create ~nbanks ~nsegments ~nslots;
    free_total = 0;
  }

let clear t =
  for bank = 0 to t.nbanks - 1 do
    t.free.(bank) <- Bucketed.create ();
    t.by_live.(bank) <- Bucketed.create ();
    t.by_erase.(bank) <- Bucketed.create ()
  done;
  Array.fill t.by_age.size 0 (Array.length t.by_age.size) 0;
  Array.fill t.by_age.pos 0 (Array.length t.by_age.pos) (-1);
  t.free_total <- 0

let wear_keyed t = t.wear_keyed

let check_bank t bank =
  if bank < 0 || bank >= t.nbanks then invalid_arg "Seg_index: bank out of range"

(* --- Free side ------------------------------------------------------------ *)

let free_count t = t.free_total

let bank_free_count t ~bank =
  check_bank t bank;
  Bucketed.size t.free.(bank)

let add_free t ~bank ~key ~id =
  check_bank t bank;
  Bucketed.add t.free.(bank) ~key id;
  t.free_total <- t.free_total + 1

let remove_free t ~bank ~key ~id =
  check_bank t bank;
  Bucketed.remove t.free.(bank) ~key id;
  t.free_total <- t.free_total - 1

let least_worn_free t ~bank =
  check_bank t bank;
  Bucketed.min_entry t.free.(bank)

let most_worn_free t ~bank =
  check_bank t bank;
  Bucketed.max_entry t.free.(bank)

(* --- Closed (victim) side ------------------------------------------------- *)

let add_closed t ~bank ~id ~live ~erase ~lt_ns =
  check_bank t bank;
  if t.track_live then Bucketed.add t.by_live.(bank) ~key:live id;
  if t.track_erase then Bucketed.add t.by_erase.(bank) ~key:erase id;
  if t.track_age then aged_add t.by_age ~bank ~id ~live ~lt_ns

let remove_closed t ~bank ~id ~live ~erase ~lt_ns =
  check_bank t bank;
  if t.track_live then Bucketed.remove t.by_live.(bank) ~key:live id;
  if t.track_erase then Bucketed.remove t.by_erase.(bank) ~key:erase id;
  if t.track_age then aged_remove t.by_age ~bank ~id ~live ~lt_ns

let closed_live_changed t ~bank ~id ~old_live ~new_live ~lt_ns =
  check_bank t bank;
  if t.track_live then begin
    Bucketed.remove t.by_live.(bank) ~key:old_live id;
    Bucketed.add t.by_live.(bank) ~key:new_live id
  end;
  if t.track_age then begin
    aged_remove t.by_age ~bank ~id ~live:old_live ~lt_ns;
    aged_add t.by_age ~bank ~id ~live:new_live ~lt_ns
  end

let least_live_closed t ~bank =
  check_bank t bank;
  Bucketed.min_entry t.by_live.(bank)

let coldest_closed t ~bank =
  check_bank t bank;
  Bucketed.min_entry t.by_erase.(bank)

(* The cost-benefit score of closed segment [id] with [live] live blocks
   at [now] ns: [u] its utilization, [age] the seconds since it last
   changed, +1 s so that brand-new segments do not all score 0.  Inlined,
   so the float stays unboxed in the caller. *)
let[@inline] score a ~now ~live id =
  let lt = a.lt.(id) in
  let u = float_of_int live /. float_of_int a.nslots in
  let age = float_of_int (Int.max now lt - lt) /. 1e9 in
  (age +. 1.0) *. (1.0 -. u) /. (1.0 +. u)

(* The lowest id, [low] or below, among the nodes of the subtree at [i]
   (of the live-[live] heap holding [n] ids) that score as [root] does.
   Scores never rise from parent to child, so the nodes tying the root
   form a subtree around it: each path stops at its first lower score.
   Both scores are computed here, so no float crosses a call. *)
let rec lowest_tied a heap ~n ~now ~live ~root i low =
  if i >= n then low
  else begin
    let id = heap.(i) in
    if score a ~now ~live id <> score a ~now ~live root then low
    else begin
      let low = lowest_tied a heap ~n ~now ~live ~root ((2 * i) + 1) (Int.min id low) in
      lowest_tied a heap ~n ~now ~live ~root ((2 * i) + 2) low
    end
  end

let max_score_closed t ~first_bank ~end_bank ~now_ns:now =
  let a = t.by_age in
  (* Local refs, which the compiler keeps unboxed in registers. *)
  let best_id = ref (-1) in
  let best = ref neg_infinity in
  (* Live-major, so the full-segment heaps, which all score 0, come last
     and are walked only when no bank holds anything better. *)
  for live = 0 to a.nslots do
    for bank = first_bank to end_bank - 1 do
      let h = (bank * (a.nslots + 1)) + live in
      let n = a.size.(h) in
      if n > 0 then begin
        let heap = a.heaps.(h) in
        let root = heap.(0) in
        let s = score a ~now ~live root in
        if s >= !best then begin
          let id =
            lowest_tied a heap ~n ~now ~live ~root 1
              (lowest_tied a heap ~n ~now ~live ~root 2 root)
          in
          if s > !best || id < !best_id then begin
            best := s;
            best_id := id
          end
        end
      end
    done
  done;
  !best_id

let closed_by_age t ~bank ~live =
  check_bank t bank;
  let a = t.by_age in
  let h = heap_of a ~bank ~live in
  Array.init a.size.(h) (fun i ->
      let id = a.heaps.(h).(i) in
      (a.lt.(id), id))
