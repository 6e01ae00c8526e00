(* The buffer cache as it was before its int-array rewrite, kept as the
   reference the property test in [test_fs_base.ml] holds the production
   module to, op for op.  Same role as [write_buffer_oracle.ml]: a
   deliberately simple implementation, never shipped.

   A doubly linked list of [node] records, MRU first, threaded through a
   Hashtbl from key to node.  The [Some node] links, the table's buckets
   and [find_opt]'s results box on every access: this is the allocation
   the production module removed, and the LRU order, dirty bits and
   counters it must keep. *)

type node = {
  key : int;
  mutable dirty : bool;
  mutable prev : node option;  (* toward MRU *)
  mutable next : node option;  (* toward LRU *)
}

type t = {
  capacity : int;
  table : (int, node) Hashtbl.t;
  mutable mru : node option;
  mutable lru : node option;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
  p_hits : Sim.Probe.counter;
  p_misses : Sim.Probe.counter;
  p_writebacks : Sim.Probe.counter;
}

let create ~probe ~capacity_blocks =
  if capacity_blocks < 0 then invalid_arg "Buffer_cache.create: negative capacity";
  {
    capacity = capacity_blocks;
    table = Hashtbl.create (max 16 capacity_blocks);
    mru = None;
    lru = None;
    hits = 0;
    misses = 0;
    writebacks = 0;
    p_hits = Sim.Probe.counter (probe ^ ".hits");
    p_misses = Sim.Probe.counter (probe ^ ".misses");
    p_writebacks = Sim.Probe.counter (probe ^ ".writebacks");
  }

let capacity t = t.capacity
let size t = Hashtbl.length t.table

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.mru <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.lru <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.mru;
  node.prev <- None;
  (match t.mru with Some m -> m.prev <- Some node | None -> t.lru <- Some node);
  t.mru <- Some node

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

let find t ~key =
  match Hashtbl.find_opt t.table key with
  | Some node ->
    count_hit t;
    unlink t node;
    push_front t node;
    Hit
  | None ->
    count_miss t;
    Miss

let evict_one t =
  match t.lru with
  | None -> None
  | Some node ->
    unlink t node;
    Hashtbl.remove t.table node.key;
    if node.dirty then begin
      count_writeback t;
      Some node.key
    end
    else None

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
    while size t >= t.capacity do
      match evict_one t with
      | Some victim -> victims := victim :: !victims
      | None -> ()
    done;
    let node = { key; dirty; prev = None; next = None } in
    Hashtbl.replace t.table key node;
    push_front t node;
    List.rev !victims
  end

let insert t ~key ~dirty =
  match Hashtbl.find_opt t.table key with
  | Some node ->
    node.dirty <- node.dirty || dirty;
    unlink t node;
    push_front t node;
    []
  | None -> insert_fresh t ~key ~dirty

let find_or_insert t ~key ~dirty =
  match Hashtbl.find_opt t.table key with
  | Some node ->
    count_hit t;
    node.dirty <- node.dirty || dirty;
    unlink t node;
    push_front t node;
    (Hit, [])
  | None ->
    count_miss t;
    (Miss, insert_fresh t ~key ~dirty)

let is_dirty t ~key =
  match Hashtbl.find_opt t.table key with Some node -> node.dirty | None -> false

let contains t ~key = Hashtbl.mem t.table key

let forget t ~key =
  match Hashtbl.find_opt t.table key with
  | Some node ->
    unlink t node;
    Hashtbl.remove t.table key
  | None -> ()

let clear t =
  Hashtbl.reset t.table;
  t.mru <- None;
  t.lru <- None

let take_dirty t =
  (* Oldest first: walk from the LRU end. *)
  let rec collect acc = function
    | None -> List.rev acc
    | Some node ->
      let acc = if node.dirty then node.key :: acc else acc in
      node.dirty <- false;
      collect acc node.prev
  in
  collect [] t.lru

let hits t = t.hits
let misses t = t.misses
let writebacks t = t.writebacks

let reset_counters t =
  t.hits <- 0;
  t.misses <- 0;
  t.writebacks <- 0
