(* The library exports [Storage.Array], which would otherwise shadow the
   stdlib here. *)
module Array = Stdlib.Array
open Sim

type config = {
  capacity_blocks : int;
  writeback_delay : Time.span;
  refresh_on_rewrite : bool;
}

let default_config =
  { capacity_blocks = Units.mib / 512; writeback_delay = Time.span_s 30.0;
    refresh_on_rewrite = true }

(* [deadline.(block)] for a block that is not dirty. *)
let absent = -1

type t = {
  cfg : config;
  (* Current deadline in ns, indexed by block id, as [Manager.meta] is:
     a lookup is a bounds check and a load, and nothing is allocated. *)
  mutable deadline : int array;
  mutable size : int;
  (* The deadline queue, entry [i] being [(q_at.(i), q_seq.(i),
     q_block.(i))]: see below. *)
  mutable q_at : int array;  (* deadline, ns *)
  mutable q_seq : int array;
  mutable q_block : int array;
  mutable pending : int;  (* entries held, stale ones included *)
  mutable next_seq : int;
  mutable absorbed : int;
  mutable cancelled : int;
  mutable admitted : int;
}

let create cfg =
  if cfg.capacity_blocks < 0 then invalid_arg "Write_buffer.create: negative capacity";
  {
    cfg;
    deadline = [||];
    size = 0;
    q_at = [||];
    q_seq = [||];
    q_block = [||];
    pending = 0;
    next_seq = 0;
    absorbed = 0;
    cancelled = 0;
    admitted = 0;
  }

let config t = t.cfg
let size t = t.size
let capacity t = t.cfg.capacity_blocks
let is_full t = size t >= capacity t

let mem t ~block =
  block >= 0 && block < Array.length t.deadline && t.deadline.(block) <> absent

let ensure_capacity t block =
  if block < 0 then invalid_arg "Write_buffer.write: negative block";
  let cap = Array.length t.deadline in
  if block >= cap then begin
    let grown = Array.make (max (block + 1) (max 1024 (2 * cap))) absent in
    Array.blit t.deadline 0 grown 0 cap;
    t.deadline <- grown
  end

type admit = Absorbed | Admitted | Needs_eviction

let p_absorbed = Probe.counter "storage.write_buffer.absorbed"
let p_admitted = Probe.counter "storage.write_buffer.admitted"
let p_cancelled = Probe.counter "storage.write_buffer.cancelled"

(* --- The deadline queue ---------------------------------------------------

   A binary min-heap ordered by (deadline, sequence number), in three
   parallel int arrays: an entry is three ints in place, so none is
   allocated and no heap move goes through the write barrier.  Enqueues
   and the peek's requeue draw from one sequence counter.  Keys are
   unique, so entries come out in an order that does not depend on the
   heap's layout, and equal deadlines come out in sequence order.
   Invalidation is lazy: an entry is stale when [deadline.(block)]
   disagrees with it (the block was refreshed or removed).

   Sifts move a hole instead of swapping: each level stores one entry, and
   the entry being placed is written once, where the hole stops.  The
   helpers are [@inline]: this build has no flambda, and a call per
   comparison and per move would be much of a sift's cost. *)

(* Does the entry [(at, seq)] come before the one in cell [i]? *)
let[@inline] before t at seq i =
  let ai = t.q_at.(i) in
  at < ai || (at = ai && seq < t.q_seq.(i))

let[@inline] place t i at seq block =
  t.q_at.(i) <- at;
  t.q_seq.(i) <- seq;
  t.q_block.(i) <- block

let[@inline] move t ~src ~dst = place t dst t.q_at.(src) t.q_seq.(src) t.q_block.(src)

let rec sift_up t i at seq block =
  let parent = (i - 1) / 2 in
  if i > 0 && before t at seq parent then begin
    move t ~src:parent ~dst:i;
    sift_up t parent at seq block
  end
  else place t i at seq block

(* Place the entry at the hole [i] of a heap of [n] entries, or below it. *)
let rec sift_down t ~n i at seq block =
  let l = (2 * i) + 1 in
  let c = if l + 1 < n && before t t.q_at.(l + 1) t.q_seq.(l + 1) l then l + 1 else l in
  if c < n && not (before t at seq c) then begin
    move t ~src:c ~dst:i;
    sift_down t ~n c at seq block
  end
  else place t i at seq block

let extend a cap =
  let grown = Array.make cap 0 in
  Array.blit a 0 grown 0 (Array.length a);
  grown

let push t at block =
  let n = t.pending in
  if n = Array.length t.q_at then begin
    let cap = if n = 0 then 16 else 2 * n in
    t.q_at <- extend t.q_at cap;
    t.q_seq <- extend t.q_seq cap;
    t.q_block <- extend t.q_block cap
  end;
  t.pending <- n + 1;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  sift_up t n at seq block

(* Drop the root; the last entry refills the heap from the top. *)
let pop_min t =
  let n = t.pending - 1 in
  t.pending <- n;
  if n > 0 then sift_down t ~n 0 t.q_at.(n) t.q_seq.(n) t.q_block.(n)

(* A fresh sequence number puts the root behind every entry at its
   deadline, exactly where popping it and pushing it back would. *)
let requeue_min t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  sift_down t ~n:t.pending 0 t.q_at.(0) seq t.q_block.(0)

let[@inline] is_current t i = t.deadline.(t.q_block.(i)) = t.q_at.(i)

(* Keep the entries the table still agrees with, in place, then rebuild the
   heap bottom-up.  Survivors keep their keys, so they come out in the
   same order as before. *)
let compact t =
  let kept = ref 0 in
  for i = 0 to t.pending - 1 do
    if is_current t i then begin
      move t ~src:i ~dst:!kept;
      incr kept
    end
  done;
  let n = !kept in
  t.pending <- n;
  for i = (n / 2) - 1 downto 0 do
    sift_down t ~n i t.q_at.(i) t.q_seq.(i) t.q_block.(i)
  done

(* A deadline refresh leaves the block's previous queue entry behind
   (lazy invalidation), so refresh-heavy hot-block workloads would grow
   the queue without bound.  When stale entries outnumber live ones,
   compact: the cost is amortized O(1) per enqueue, except that rewrites
   of one block at one instant leave entries that all look current, so a
   long burst of them compacts on every enqueue. *)
let enqueue t ~block ~deadline =
  let at = Time.to_ns deadline in
  t.deadline.(block) <- at;
  push t at block;
  if t.pending > 16 && t.pending > 2 * t.size then compact t

let write t ~now ~block =
  (* Zero capacity is a true pass-through: nothing is ever admitted, so
     there is nothing to absorb or refresh either — don't touch the
     tables, just tell the caller to write through. *)
  if t.cfg.capacity_blocks = 0 then Needs_eviction
  else if mem t ~block then begin
    t.absorbed <- t.absorbed + 1;
    Probe.incr p_absorbed;
    if t.cfg.refresh_on_rewrite then
      enqueue t ~block ~deadline:(Time.add now t.cfg.writeback_delay);
    Absorbed
  end
  else if is_full t then Needs_eviction
  else begin
    ensure_capacity t block;
    t.admitted <- t.admitted + 1;
    Probe.incr p_admitted;
    t.size <- t.size + 1;
    enqueue t ~block ~deadline:(Time.add now t.cfg.writeback_delay);
    Admitted
  end

let forget t block =
  t.deadline.(block) <- absent;
  t.size <- t.size - 1

let take t ~block =
  if mem t ~block then begin
    forget t block;
    true
  end
  else false

let remove t ~block =
  if take t ~block then begin
    t.cancelled <- t.cancelled + 1;
    Probe.incr p_cancelled;
    true
  end
  else false

(* Pop due entries, skipping stale ones, until a live block comes out. *)
let rec take_expired_exn t ~now =
  if t.pending = 0 || Time.to_ns now < t.q_at.(0) then raise_notrace Not_found;
  let current = is_current t 0 and block = t.q_block.(0) in
  pop_min t;
  if current then begin
    forget t block;
    block
  end
  else take_expired_exn t ~now

(* Drop stale heads; requeue the live head behind its equal-deadline peers
   and return it. *)
let rec peek_exn t =
  if t.pending = 0 then raise_notrace Not_found;
  let block = t.q_block.(0) in
  if is_current t 0 then begin
    requeue_min t;
    block
  end
  else begin
    pop_min t;
    peek_exn t
  end

let oldest_exn = peek_exn
let next_deadline_exn t = Time.of_ns t.deadline.(peek_exn t)

let drain t =
  let forever = Time.of_ns max_int in
  let rec go acc =
    match take_expired_exn t ~now:forever with
    | block -> go (block :: acc)
    | exception Not_found -> List.rev acc
  in
  go []

let pending_entries t = t.pending

let absorbed_writes t = t.absorbed
let cancelled_blocks t = t.cancelled
let admitted_blocks t = t.admitted

let reset_counters t =
  t.absorbed <- 0;
  t.cancelled <- 0;
  t.admitted <- 0
