(* [Storage.Array] (the card array) would shadow the stdlib inside this library. *)
module Array = Stdlib.Array

(* A family of indexed binary min-heaps over segment ids, ordered by
   (key, id).  Each heap is an int array that doubles when full and never
   shrinks, so updates allocate only while a heap outgrows its largest
   size so far.  An id sits in at most one heap of a family: [pos] (its
   index within that heap, or [-1]) and [key] are indexed by id and
   shared by the family's heaps. *)
type heaps = {
  heaps : int array array;
  size : int array;
  pos : int array;
  key : int array;
}

let heaps_create ~nheaps ~nsegments =
  {
    heaps = Array.make nheaps [||];
    size = Array.make nheaps 0;
    pos = Array.make nsegments (-1);
    key = Array.make nsegments 0;
  }

let heaps_clear f =
  Array.fill f.size 0 (Array.length f.size) 0;
  Array.fill f.pos 0 (Array.length f.pos) (-1)

(* Slots [i] and [j] of [heap] in (key, id) order. *)
let precedes f heap i j =
  let x = heap.(i) and y = heap.(j) in
  f.key.(x) < f.key.(y) || (f.key.(x) = f.key.(y) && x < y)

let place f heap i id =
  heap.(i) <- id;
  f.pos.(id) <- i

let swap f heap i j =
  let x = heap.(i) in
  place f heap i heap.(j);
  place f heap j x

let rec sift_up f heap i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if precedes f heap i parent then begin
      swap f heap i parent;
      sift_up f heap parent
    end
  end

let rec sift_down f heap ~n i =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && precedes f heap (l + 1) l then l + 1 else l in
    if precedes f heap c i then begin
      swap f heap c i;
      sift_down f heap ~n c
    end
  end

(* Whether [id] is in heap [h] under [key]. *)
let mem f h ~id ~key =
  let i = f.pos.(id) in
  i >= 0 && i < f.size.(h) && f.heaps.(h).(i) = id && f.key.(id) = key

(* Unchecked: callers test [pos] and {!mem} first, so misuse raises before
   anything changes. *)
let push f h ~id ~key =
  let n = f.size.(h) in
  if n = Array.length f.heaps.(h) then begin
    let grown = Array.make (Int.max 4 (2 * n)) 0 in
    Array.blit f.heaps.(h) 0 grown 0 n;
    f.heaps.(h) <- grown
  end;
  f.key.(id) <- key;
  f.size.(h) <- n + 1;
  place f f.heaps.(h) n id;
  sift_up f f.heaps.(h) n

let delete f h ~id =
  let heap = f.heaps.(h) in
  let i = f.pos.(id) in
  let n = f.size.(h) - 1 in
  f.size.(h) <- n;
  f.pos.(id) <- -1;
  if i < n then begin
    place f heap i heap.(n);
    sift_down f heap ~n i;
    sift_up f heap i
  end

let root f h = if f.size.(h) = 0 then -1 else f.heaps.(h).(0)

type t = {
  nbanks : int;
  nslots : int;
  (* Free segments, heap [bank], by wear key and by its negation. *)
  least_worn : heaps;
  most_worn : heaps;
  (* Closed segments, heap [bank] by erase count, and heap
     [bank * (nslots + 1) + live] by age key. *)
  by_erase : heaps;
  by_age : heaps;
  mutable free_total : int;
}

let create ~nbanks ~nsegments ~nslots =
  if nbanks < 1 then invalid_arg "Seg_index.create: nbanks < 1";
  let per_bank () = heaps_create ~nheaps:nbanks ~nsegments in
  {
    nbanks;
    nslots;
    least_worn = per_bank ();
    most_worn = per_bank ();
    by_erase = per_bank ();
    by_age = heaps_create ~nheaps:(nbanks * (nslots + 1)) ~nsegments;
    free_total = 0;
  }

let clear t =
  heaps_clear t.least_worn;
  heaps_clear t.most_worn;
  heaps_clear t.by_erase;
  heaps_clear t.by_age;
  t.free_total <- 0

let check_bank t bank =
  if bank < 0 || bank >= t.nbanks then invalid_arg "Seg_index: bank out of range"

let age_heap t ~bank ~live =
  if live < 0 || live > t.nslots then
    invalid_arg (Printf.sprintf "Seg_index: live count %d out of range" live);
  (bank * (t.nslots + 1)) + live

let already id = invalid_arg (Printf.sprintf "Seg_index: id %d already indexed" id)

let absent id what key =
  invalid_arg (Printf.sprintf "Seg_index: id %d not indexed under %s %d" id what key)

(* --- Free side ------------------------------------------------------------ *)

let free_count t = t.free_total

let add_free t ~bank ~key ~id =
  check_bank t bank;
  if t.least_worn.pos.(id) >= 0 then already id;
  push t.least_worn bank ~id ~key;
  push t.most_worn bank ~id ~key:(-key);
  t.free_total <- t.free_total + 1

let remove_free t ~bank ~key ~id =
  check_bank t bank;
  if not (mem t.least_worn bank ~id ~key) then absent id "wear key" key;
  delete t.least_worn bank ~id;
  delete t.most_worn bank ~id;
  t.free_total <- t.free_total - 1

let least_worn_free t ~bank =
  check_bank t bank;
  root t.least_worn bank

let most_worn_free t ~bank =
  check_bank t bank;
  root t.most_worn bank

(* --- Closed (victim) side ------------------------------------------------- *)

let mem_closed t ~id = t.by_age.pos.(id) >= 0

let add_closed t ~bank ~id ~live ~erase ~age =
  check_bank t bank;
  let h = age_heap t ~bank ~live in
  if mem_closed t ~id then already id;
  push t.by_age h ~id ~key:age;
  push t.by_erase bank ~id ~key:erase

let remove_closed t ~bank ~id ~live ~erase ~age =
  check_bank t bank;
  let h = age_heap t ~bank ~live in
  if not (mem t.by_age h ~id ~key:age) then absent id "age key" age;
  if not (mem t.by_erase bank ~id ~key:erase) then absent id "erase count" erase;
  delete t.by_age h ~id;
  delete t.by_erase bank ~id

let closed_live_changed t ~bank ~id ~old_live ~new_live ~age =
  check_bank t bank;
  let h = age_heap t ~bank ~live:old_live in
  let h' = age_heap t ~bank ~live:new_live in
  if not (mem t.by_age h ~id ~key:age) then absent id "age key" age;
  delete t.by_age h ~id;
  push t.by_age h' ~id ~key:age

(* The root of the first non-empty age heap, live count major, then bank. *)
let rec least_live_from t ~first_bank ~end_bank ~live bank =
  if live > t.nslots then -1
  else if bank >= end_bank then
    least_live_from t ~first_bank ~end_bank ~live:(live + 1) first_bank
  else
    let id = root t.by_age ((bank * (t.nslots + 1)) + live) in
    if id >= 0 then id else least_live_from t ~first_bank ~end_bank ~live (bank + 1)

let least_live_closed t ~first_bank ~end_bank =
  least_live_from t ~first_bank ~end_bank ~live:0 first_bank

let coldest_closed t ~first_bank ~end_bank =
  let f = t.by_erase in
  let best = ref (-1) in
  for bank = first_bank to end_bank - 1 do
    let id = root f bank in
    if id >= 0 && (!best < 0 || f.key.(id) < f.key.(!best)) then best := id
  done;
  !best

(* The cost-benefit score of closed segment [id] with [live] live blocks
   at [now] ns: [u] its utilization, [age] the seconds since it last
   changed, +1 s so that brand-new segments do not all score 0.  Inlined,
   so the float stays unboxed in the caller. *)
let[@inline] score t ~now ~live id =
  let lt = t.by_age.key.(id) in
  let u = float_of_int live /. float_of_int t.nslots in
  let age = float_of_int (Int.max now lt - lt) /. 1e9 in
  (age +. 1.0) *. (1.0 -. u) /. (1.0 +. u)

(* The lowest id, [low] or below, among the nodes of the subtree at [i]
   (of the live-[live] heap holding [n] ids) that score as [root] does.
   Scores never rise from parent to child, so the nodes tying the root
   form a subtree around it: each path stops at its first lower score.
   Both scores are computed here, so no float crosses a call. *)
let rec lowest_tied t heap ~n ~now ~live ~root i low =
  if i >= n then low
  else begin
    let id = heap.(i) in
    if score t ~now ~live id <> score t ~now ~live root then low
    else begin
      let low = lowest_tied t heap ~n ~now ~live ~root ((2 * i) + 1) (Int.min id low) in
      lowest_tied t heap ~n ~now ~live ~root ((2 * i) + 2) low
    end
  end

let max_score_closed t ~first_bank ~end_bank ~now_ns:now =
  let a = t.by_age in
  (* Local refs, which the compiler keeps unboxed in registers. *)
  let best_id = ref (-1) in
  let best = ref neg_infinity in
  (* Live-major, so the full-segment heaps, which all score 0, come last
     and are walked only when no bank holds anything better. *)
  for live = 0 to t.nslots do
    for bank = first_bank to end_bank - 1 do
      let h = (bank * (t.nslots + 1)) + live in
      let n = a.size.(h) in
      if n > 0 then begin
        let heap = a.heaps.(h) in
        let root = heap.(0) in
        let s = score t ~now ~live root in
        if s >= !best then begin
          let id =
            lowest_tied t heap ~n ~now ~live ~root 1
              (lowest_tied t heap ~n ~now ~live ~root 2 root)
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

type family = Least_worn | Most_worn | By_erase | By_age of int

let heap t family ~bank =
  check_bank t bank;
  let f, h =
    match family with
    | Least_worn -> (t.least_worn, bank)
    | Most_worn -> (t.most_worn, bank)
    | By_erase -> (t.by_erase, bank)
    | By_age live -> (t.by_age, age_heap t ~bank ~live)
  in
  Array.init f.size.(h) (fun i ->
      let id = f.heaps.(h).(i) in
      (f.key.(id), id))
