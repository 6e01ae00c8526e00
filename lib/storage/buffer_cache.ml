(* An LRU list threaded through int arrays sized to the capacity, indexed
   by an open-addressing table: nothing is allocated per access.  The
   probe counters are per instance because two owners share this module:
   the disk file system and the card array's front cache.

   Residents occupy slots [0, capacity): [keys], [dirty] and the [prev]
   (toward MRU) / [next] (toward LRU) links, [nil] ending the list.  Free
   slots are chained through [next] from [free].  [index] maps a key to
   its slot by linear probing from the key's home cell; [nil] marks an
   empty cell, and a deletion shifts the rest of its probe run back, so a
   lookup stops at the first empty cell. *)

(* [Storage.Array] (the card array) would shadow the stdlib inside this library. *)
module Array = Stdlib.Array

let nil = -1

type t = {
  capacity : int;
  keys : int array;
  dirty : bool array;
  prev : int array;
  next : int array;
  index : int array;  (* power-of-two length, at least 2 x capacity *)
  shift : int;  (* home cell = the hash's top log2 (length index) bits *)
  mutable mru : int;
  mutable lru : int;
  mutable free : int;
  mutable size : int;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
  p_hits : Sim.Probe.counter;
  p_misses : Sim.Probe.counter;
  p_writebacks : Sim.Probe.counter;
}

let chain_free t =
  for s = 0 to t.capacity - 1 do
    t.next.(s) <- (if s + 1 < t.capacity then s + 1 else nil)
  done;
  t.free <- (if t.capacity > 0 then 0 else nil)

let create ~probe ~capacity_blocks =
  if capacity_blocks < 0 then invalid_arg "Buffer_cache.create: negative capacity";
  let bits = ref 1 in
  while 1 lsl !bits < 2 * capacity_blocks do
    incr bits
  done;
  let t =
    {
      capacity = capacity_blocks;
      keys = Array.make capacity_blocks 0;
      dirty = Array.make capacity_blocks false;
      prev = Array.make capacity_blocks nil;
      next = Array.make capacity_blocks nil;
      index = Array.make (1 lsl !bits) nil;
      shift = Sys.int_size - !bits;
      mru = nil;
      lru = nil;
      free = nil;
      size = 0;
      hits = 0;
      misses = 0;
      writebacks = 0;
      p_hits = Sim.Probe.counter (probe ^ ".hits");
      p_misses = Sim.Probe.counter (probe ^ ".misses");
      p_writebacks = Sim.Probe.counter (probe ^ ".writebacks");
    }
  in
  chain_free t;
  t

let capacity t = t.capacity
let size t = t.size

(* Fibonacci hashing: dense and strided keys alike spread over the table. *)
let home t key = (key * 0x1F1BBCDCBFA53E0B) lsr t.shift

let check_key key = if key < 0 then invalid_arg "Buffer_cache: negative key"

(* The probe loops are top-level functions taking all they use: a local
   recursive function would allocate its closure on every call. *)

(* The index cell holding [key], or [nil]: probe from cell [i]. *)
let rec find_cell t key mask i =
  let s = t.index.(i) in
  if s = nil then nil
  else if t.keys.(s) = key then i
  else find_cell t key mask ((i + 1) land mask)

let cell_of t key = find_cell t key (Array.length t.index - 1) (home t key)

let slot_of t key =
  check_key key;
  let i = cell_of t key in
  if i = nil then nil else t.index.(i)

let rec place t s mask i =
  if t.index.(i) = nil then t.index.(i) <- s else place t s mask ((i + 1) land mask)

let index_add t s = place t s (Array.length t.index - 1) (home t t.keys.(s))

(* Fill [hole] from the probe run after it, scanning from cell [j]: an
   entry may move into the hole unless its home lies cyclically within
   (hole, j].  The run ends at an empty cell, which the hole becomes. *)
let rec shift_back t mask hole j =
  let s = t.index.(j) in
  if s = nil then t.index.(hole) <- nil
  else begin
    let h = home t t.keys.(s) in
    let stays = if hole <= j then hole < h && h <= j else hole < h || h <= j in
    if stays then shift_back t mask hole ((j + 1) land mask)
    else begin
      t.index.(hole) <- s;
      shift_back t mask j ((j + 1) land mask)
    end
  end

let index_remove t i =
  let mask = Array.length t.index - 1 in
  shift_back t mask i ((i + 1) land mask)

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  if p = nil then t.mru <- n else t.next.(p) <- n;
  if n = nil then t.lru <- p else t.prev.(n) <- p

let push_front t s =
  t.prev.(s) <- nil;
  t.next.(s) <- t.mru;
  if t.mru = nil then t.lru <- s else t.prev.(t.mru) <- s;
  t.mru <- s

(* Drop resident slot [s], found at index cell [i], and free it. *)
let release t s i =
  unlink t s;
  index_remove t i;
  t.next.(s) <- t.free;
  t.free <- s;
  t.size <- t.size - 1

type lookup = Hit | Miss

let count_hit t =
  t.hits <- t.hits + 1;
  Sim.Probe.incr t.p_hits

let count_miss t =
  t.misses <- t.misses + 1;
  Sim.Probe.incr t.p_misses

let count_writeback t =
  t.writebacks <- t.writebacks + 1;
  Sim.Probe.incr t.p_writebacks

(* A resident block accessed again: OR in the dirty bit, move it to MRU. *)
let refresh t s ~dirty =
  if dirty then t.dirty.(s) <- true;
  unlink t s;
  push_front t s

let find t ~key =
  let s = slot_of t key in
  if s <> nil then begin
    count_hit t;
    refresh t s ~dirty:false;
    Hit
  end
  else begin
    count_miss t;
    Miss
  end

(* Evict the LRU block; its key if it was dirty, else [nil]. *)
let evict_one t =
  let s = t.lru in
  release t s (cell_of t t.keys.(s));
  if t.dirty.(s) then begin
    count_writeback t;
    t.keys.(s)
  end
  else nil

(* The block is known absent: make it resident (or pass it through at zero
   capacity) and return the dirty victims.  Shared by [insert] and the miss
   arm of [find_or_insert]; counts nothing itself. *)
let insert_fresh t ~key ~dirty =
  if t.capacity = 0 then begin
    if dirty then begin
      count_writeback t;
      [ key ]
    end
    else []
  end
  else begin
    let victims = ref [] in
    while t.size >= t.capacity do
      let victim = evict_one t in
      if victim <> nil then victims := victim :: !victims
    done;
    let s = t.free in
    t.free <- t.next.(s);
    t.keys.(s) <- key;
    t.dirty.(s) <- dirty;
    index_add t s;
    push_front t s;
    t.size <- t.size + 1;
    List.rev !victims
  end

let insert t ~key ~dirty =
  let s = slot_of t key in
  if s <> nil then begin
    refresh t s ~dirty;
    []
  end
  else insert_fresh t ~key ~dirty

(* Static constants: the common outcomes return without allocating. *)
let hit = (Hit, [])
let clean_miss = (Miss, [])

let find_or_insert t ~key ~dirty =
  let s = slot_of t key in
  if s <> nil then begin
    count_hit t;
    refresh t s ~dirty;
    hit
  end
  else begin
    count_miss t;
    match insert_fresh t ~key ~dirty with [] -> clean_miss | victims -> (Miss, victims)
  end

let is_dirty t ~key =
  let s = slot_of t key in
  s <> nil && t.dirty.(s)

let contains t ~key = slot_of t key <> nil

let forget t ~key =
  check_key key;
  let i = cell_of t key in
  if i <> nil then release t t.index.(i) i

let clear t =
  Array.fill t.index 0 (Array.length t.index) nil;
  t.mru <- nil;
  t.lru <- nil;
  t.size <- 0;
  chain_free t

let take_dirty t =
  (* Oldest first: walk from the LRU end. *)
  let rec collect acc s =
    if s = nil then List.rev acc
    else begin
      let acc = if t.dirty.(s) then t.keys.(s) :: acc else acc in
      t.dirty.(s) <- false;
      collect acc t.prev.(s)
    end
  in
  collect [] t.lru

let hits t = t.hits
let misses t = t.misses
let writebacks t = t.writebacks

let reset_counters t =
  t.hits <- 0;
  t.misses <- 0;
  t.writebacks <- 0
