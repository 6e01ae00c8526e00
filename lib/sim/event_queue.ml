type 'a entry = 'a Timing_wheel.entry = {
  at : Time.t;
  seq : int;
  payload : 'a;
  mutable cancelled : bool;
}

type handle = H : 'a entry -> handle
type kind = Heap | Wheel

exception Empty

(* --- Binary min-heap ------------------------------------------------------

   The original implementation, kept as the reference structure: no
   constraints on insertion order, O(log n) add/pop.  Vacated cells are
   reset to the shared dummy so popped payload closures are not retained
   until a later add overwrites the slot. *)

module Heap_impl = struct
  type 'a t = {
    mutable heap : 'a entry array;
    (* [heap] slots >= [size] hold the dummy entry; they are never read. *)
    mutable size : int;
  }

  let create () = { heap = [||]; size = 0 }

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
      let ncap = if cap = 0 then 16 else 2 * cap in
      let nheap = Array.make ncap (Timing_wheel.dummy ()) in
      Array.blit t.heap 0 nheap 0 t.size;
      t.heap <- nheap
    end

  let add t entry =
    grow t;
    t.heap.(t.size) <- entry;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)

  let remove_min t =
    let entry = t.heap.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.heap.(0) <- t.heap.(t.size);
      sift_down t 0
    end;
    t.heap.(t.size) <- Timing_wheel.dummy ();
    entry

  (* Discard cancelled entries sitting at the root. *)
  let rec drop_cancelled t =
    if t.size > 0 && t.heap.(0).cancelled then begin
      ignore (remove_min t);
      drop_cancelled t
    end

  let pop_exn t =
    drop_cancelled t;
    if t.size = 0 then raise Empty else remove_min t

  let peek_exn t =
    drop_cancelled t;
    if t.size = 0 then raise Empty else t.heap.(0)

  let clear t =
    t.heap <- [||];
    t.size <- 0
end

(* --- The kind-dispatching queue ------------------------------------------- *)

type 'a impl = Heap_q of 'a Heap_impl.t | Wheel_q of 'a Timing_wheel.t

type 'a t = {
  impl : 'a impl;
  mutable next_seq : int;
  mutable live : int;
}

let create ?(kind = Heap) () =
  let impl =
    match kind with
    | Heap -> Heap_q (Heap_impl.create ())
    | Wheel -> Wheel_q (Timing_wheel.create ())
  in
  { impl; next_seq = 0; live = 0 }

let add t ~at payload =
  let entry = { at; seq = t.next_seq; payload; cancelled = false } in
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  (match t.impl with
  | Heap_q h -> Heap_impl.add h entry
  | Wheel_q w -> Timing_wheel.add w entry);
  H entry

let cancel t (H entry) =
  if not entry.cancelled then begin
    entry.cancelled <- true;
    t.live <- t.live - 1
  end

let pop_entry_exn t =
  if t.live = 0 then raise Empty;
  let entry =
    match t.impl with
    | Heap_q h -> Heap_impl.pop_exn h
    | Wheel_q w -> Timing_wheel.pop_exn w
  in
  t.live <- t.live - 1;
  entry

let pop_exn t = (pop_entry_exn t).payload

let pop t =
  if t.live = 0 then None
  else begin
    let entry = pop_entry_exn t in
    Some (entry.at, entry.payload)
  end

let peek_time_exn t =
  if t.live = 0 then raise Empty;
  match t.impl with
  | Heap_q h -> (Heap_impl.peek_exn h).at
  | Wheel_q w -> (Timing_wheel.peek_exn w).at

let peek_time t = if t.live = 0 then None else Some (peek_time_exn t)
let length t = t.live
let is_empty t = t.live = 0

let clear t =
  (match t.impl with Heap_q h -> Heap_impl.clear h | Wheel_q w -> Timing_wheel.clear w);
  (* Reset the tie-break counter too: a cleared queue replays a fresh
     run's delivery order exactly. *)
  t.next_seq <- 0;
  t.live <- 0
