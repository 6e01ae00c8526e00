(* A binary min-heap of entries ordered by (instant, insertion sequence).
   Cancellation is lazy: a cancelled entry stays in the heap until it
   reaches the root, where [drop_cancelled] discards it.  [pending] is
   cleared by both [cancel] and a pop, so cancelling a fired handle is a
   no-op too. *)

type 'a entry = {
  at : Time.t;
  seq : int;
      (* Tie-break: equal instants deliver in [seq] order.  Keys are unique,
         so delivery order never depends on the heap's layout. *)
  payload : 'a;
  mutable pending : bool;
}

type handle = H : 'a entry -> handle [@@unboxed]

type 'a t = {
  mutable heap : 'a entry array;
  (* [heap] slots >= [size] hold the dummy entry; they are never read. *)
  mutable size : int;  (* entries in [heap], cancelled ones included *)
  mutable live : int;  (* entries still pending *)
  mutable next_seq : int;
}

exception Empty

(* Vacated cells are reset to this shared dummy so popped entries, and
   the payload closures they hold, do not stay reachable from the heap
   until a later add overwrites the slot.  Its payload is never read:
   every read is bounded by [size]. *)
let shared_dummy : unit entry =
  { at = Time.zero; seq = min_int; payload = (); pending = false }

let dummy : 'a. unit -> 'a entry = fun () -> Obj.magic shared_dummy

(* Never pending, so cancelling it is a no-op. *)
let none = H shared_dummy
let create () = { heap = [||]; size = 0; live = 0; next_seq = 0 }

let entry_before a b =
  let c = Time.compare a.at b.at in
  if c <> 0 then c < 0 else a.seq < b.seq

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_before t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && entry_before t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.size && entry_before t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let grow t =
  let cap = Array.length t.heap in
  if t.size = cap then begin
    let nheap = Array.make (if cap = 0 then 16 else 2 * cap) (dummy ()) in
    Array.blit t.heap 0 nheap 0 t.size;
    t.heap <- nheap
  end

let add t ~at payload =
  let entry = { at; seq = t.next_seq; payload; pending = true } in
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  grow t;
  t.heap.(t.size) <- entry;
  t.size <- t.size + 1;
  sift_up t (t.size - 1);
  H entry

let cancel t (H entry) =
  if entry.pending then begin
    entry.pending <- false;
    t.live <- t.live - 1
  end

let remove_min t =
  let entry = t.heap.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.heap.(0) <- t.heap.(t.size);
    sift_down t 0
  end;
  t.heap.(t.size) <- dummy ();
  entry

(* Discard cancelled entries sitting at the root, so the root is the
   earliest pending entry.  Only called with [live > 0]. *)
let rec drop_cancelled t =
  if not t.heap.(0).pending then begin
    ignore (remove_min t);
    drop_cancelled t
  end

let pop_entry_exn t =
  if t.live = 0 then raise Empty;
  drop_cancelled t;
  let entry = remove_min t in
  entry.pending <- false;
  t.live <- t.live - 1;
  entry

let pop_exn t = (pop_entry_exn t).payload

(* The root once it is the earliest live entry. *)
let min_exn t =
  if t.live = 0 then raise Empty;
  drop_cancelled t;
  t.heap.(0)

let peek_time_exn t = (min_exn t).at
let peek_exn t = (min_exn t).payload

let length t = t.live
let is_empty t = t.live = 0
