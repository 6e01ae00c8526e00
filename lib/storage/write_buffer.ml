open Sim

type config = {
  capacity_blocks : int;
  writeback_delay : Time.span;
  refresh_on_rewrite : bool;
}

let default_config =
  { capacity_blocks = Units.mib / 512; writeback_delay = Time.span_s 30.0;
    refresh_on_rewrite = true }

type t = {
  cfg : config;
  deadlines : (int, Time.t) Hashtbl.t;  (* block -> current deadline *)
  (* Deadline-ordered queue with lazy invalidation: an entry is stale when
     the table disagrees with its timestamp (refreshed or removed). *)
  queue : int Event_queue.t;
  mutable absorbed : int;
  mutable cancelled : int;
  mutable admitted : int;
}

let create cfg =
  if cfg.capacity_blocks < 0 then invalid_arg "Write_buffer.create: negative capacity";
  {
    cfg;
    deadlines = Hashtbl.create 1024;
    queue = Event_queue.create ();
    absorbed = 0;
    cancelled = 0;
    admitted = 0;
  }

let config t = t.cfg
let size t = Hashtbl.length t.deadlines
let capacity t = t.cfg.capacity_blocks
let is_full t = size t >= capacity t
let mem t ~block = Hashtbl.mem t.deadlines block

type admit = Absorbed | Admitted | Needs_eviction

let p_absorbed = Probe.counter "storage.write_buffer.absorbed"
let p_admitted = Probe.counter "storage.write_buffer.admitted"
let p_cancelled = Probe.counter "storage.write_buffer.cancelled"

(* A deadline refresh leaves the block's previous queue entry behind
   (lazy invalidation), so refresh-heavy hot-block workloads would grow
   the queue without bound.  When stale entries outnumber live ones,
   rebuild the queue: pop everything in delivery order and re-add only
   the entries the table still agrees with.  Popped order is preserved,
   so same-deadline FIFO ties break exactly as before — delivery is
   unchanged, and the cost is amortized O(1) per enqueue.  (Event_queue
   accepts adds at instants it has already popped.) *)
let compact t =
  let rec collect acc =
    match Event_queue.pop t.queue with
    | None -> List.rev acc
    | Some (at, block) -> (
      match Hashtbl.find_opt t.deadlines block with
      | Some d when Time.equal d at -> collect ((at, block) :: acc)
      | Some _ | None -> collect acc)
  in
  List.iter
    (fun (at, block) -> ignore (Event_queue.add t.queue ~at block))
    (collect [])

let enqueue t ~block ~deadline =
  Hashtbl.replace t.deadlines block deadline;
  ignore (Event_queue.add t.queue ~at:deadline block);
  let pending = Event_queue.length t.queue in
  if pending > 16 && pending > 2 * Hashtbl.length t.deadlines then compact t

let write t ~now ~block =
  (* Zero capacity is a true pass-through: nothing is ever admitted, so
     there is nothing to absorb or refresh either — don't touch the
     tables, just tell the caller to write through. *)
  if t.cfg.capacity_blocks = 0 then Needs_eviction
  else
  match Hashtbl.find_opt t.deadlines block with
  | Some _ ->
    t.absorbed <- t.absorbed + 1;
    Probe.incr p_absorbed;
    if t.cfg.refresh_on_rewrite then
      enqueue t ~block ~deadline:(Time.add now t.cfg.writeback_delay);
    Absorbed
  | None ->
    if is_full t then Needs_eviction
    else begin
      t.admitted <- t.admitted + 1;
      Probe.incr p_admitted;
      enqueue t ~block ~deadline:(Time.add now t.cfg.writeback_delay);
      Admitted
    end

let remove t ~block =
  if Hashtbl.mem t.deadlines block then begin
    Hashtbl.remove t.deadlines block;
    t.cancelled <- t.cancelled + 1;
    Probe.incr p_cancelled;
    true
  end
  else false

(* Pop queue entries; skip entries whose table deadline disagrees (stale). *)
let rec pop_live t ~keep_if =
  match Event_queue.peek_time t.queue with
  | None -> None
  | Some at ->
    if not (keep_if at) then None
    else begin
      match Event_queue.pop t.queue with
      | None -> None
      | Some (at, block) -> begin
        match Hashtbl.find_opt t.deadlines block with
        | Some d when Time.equal d at ->
          Hashtbl.remove t.deadlines block;
          Some block
        | Some _ | None -> pop_live t ~keep_if
      end
    end

let take_expired ?(limit = max_int) t ~now =
  let rec go n acc =
    if n >= limit then List.rev acc
    else begin
      match pop_live t ~keep_if:(fun at -> Time.( <= ) at now) with
      | Some block -> go (n + 1) (block :: acc)
      | None -> List.rev acc
    end
  in
  go 0 []

(* Find the earliest live entry without removing it. *)
let rec peek_live t =
  match Event_queue.pop t.queue with
  | None -> None
  | Some (at, block) -> begin
    match Hashtbl.find_opt t.deadlines block with
    | Some d when Time.equal d at ->
      (* Re-insert: we only wanted to look. *)
      ignore (Event_queue.add t.queue ~at block);
      Some (at, block)
    | Some _ | None -> peek_live t
  end

let oldest t = Option.map snd (peek_live t)

let take t ~block =
  if Hashtbl.mem t.deadlines block then begin
    Hashtbl.remove t.deadlines block;
    true
  end
  else false

let next_deadline t = Option.map fst (peek_live t)

let drain t =
  let rec go acc =
    match pop_live t ~keep_if:(fun _ -> true) with
    | Some block -> go (block :: acc)
    | None -> List.rev acc
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
