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
  (* Deadline-ordered queue with lazy invalidation: an entry is stale when
     the table disagrees with its timestamp (refreshed or removed). *)
  queue : int Event_queue.t;
  (* The compaction filter, built once so compacting allocates nothing. *)
  current : Time.t -> int -> bool;
  mutable absorbed : int;
  mutable cancelled : int;
  mutable admitted : int;
}

let is_current t at block = t.deadline.(block) = Time.to_ns at

let create cfg =
  if cfg.capacity_blocks < 0 then invalid_arg "Write_buffer.create: negative capacity";
  let rec t =
    {
      cfg;
      deadline = [||];
      size = 0;
      queue = Event_queue.create ();
      current = (fun at block -> is_current t at block);
      absorbed = 0;
      cancelled = 0;
      admitted = 0;
    }
  in
  t

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

(* A deadline refresh leaves the block's previous queue entry behind
   (lazy invalidation), so refresh-heavy hot-block workloads would grow
   the queue without bound.  When stale entries outnumber live ones, drop
   every entry the table no longer agrees with, in place.  Survivors keep
   their relative order, so same-deadline FIFO ties break exactly as
   before, and the cost is amortized O(1) per enqueue. *)
let enqueue t ~block ~deadline =
  t.deadline.(block) <- Time.to_ns deadline;
  ignore (Event_queue.add t.queue ~at:deadline block);
  let pending = Event_queue.length t.queue in
  if pending > 16 && pending > 2 * t.size then Event_queue.filter_inplace t.queue t.current

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
  if Event_queue.is_empty t.queue then raise_notrace Not_found;
  let at = Event_queue.peek_time_exn t.queue in
  if Time.( < ) now at then raise_notrace Not_found;
  let block = Event_queue.pop_exn t.queue in
  if is_current t at block then begin
    forget t block;
    block
  end
  else take_expired_exn t ~now

(* Drop stale heads; requeue the live head behind its equal-deadline peers
   and return it. *)
let rec peek_exn t =
  if Event_queue.is_empty t.queue then raise_notrace Not_found;
  let at = Event_queue.peek_time_exn t.queue in
  let block = Event_queue.peek_exn t.queue in
  if is_current t at block then begin
    Event_queue.requeue_exn t.queue;
    block
  end
  else begin
    ignore (Event_queue.pop_exn t.queue);
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

let pending_entries t = Event_queue.length t.queue

let absorbed_writes t = t.absorbed
let cancelled_blocks t = t.cancelled
let admitted_blocks t = t.admitted

let reset_counters t =
  t.absorbed <- 0;
  t.cancelled <- 0;
  t.admitted <- 0
