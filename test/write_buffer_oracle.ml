(* The write buffer as it was before its dense-table rewrite, kept as the
   reference the property tests in [test_write_buffer.ml] hold the
   production module to, op for op.  Same shape as [scan_oracle.ml]: a
   deliberately simple implementation, never shipped.

   A Hashtbl maps each dirty block to its deadline; a deadline-ordered
   [Event_queue] holds one entry per enqueue, with lazy invalidation (an
   entry is stale when the table disagrees with its instant).  A peek pops
   the earliest live entry and re-adds it, so looking moves it behind its
   equal-deadline peers; compaction pops every entry and re-adds the ones
   the table still agrees with.  Options, tuples and lists box on every
   call: this is the allocation the production module removed, and the
   order of stale-entry drops, requeues and compactions it must keep. *)

open Sim

type t = {
  cfg : Storage.Write_buffer.config;
  deadlines : (int, Time.t) Hashtbl.t;  (* block -> current deadline *)
  queue : int Event_queue.t;
  mutable absorbed : int;
  mutable cancelled : int;
  mutable admitted : int;
}

let create (cfg : Storage.Write_buffer.config) =
  if cfg.capacity_blocks < 0 then invalid_arg "Write_buffer.create: negative capacity";
  {
    cfg;
    deadlines = Hashtbl.create 1024;
    queue = Event_queue.create ();
    absorbed = 0;
    cancelled = 0;
    admitted = 0;
  }

(* The option forms the queue used to offer. *)
let peek_time q = if Event_queue.is_empty q then None else Some (Event_queue.peek_time_exn q)

let pop q =
  if Event_queue.is_empty q then None
  else begin
    let at = Event_queue.peek_time_exn q in
    Some (at, Event_queue.pop_exn q)
  end

let size t = Hashtbl.length t.deadlines
let capacity t = t.cfg.capacity_blocks
let is_full t = size t >= capacity t
let mem t ~block = Hashtbl.mem t.deadlines block

let compact t =
  let rec collect acc =
    match pop t.queue with
    | None -> List.rev acc
    | Some (at, block) -> (
      match Hashtbl.find_opt t.deadlines block with
      | Some d when Time.equal d at -> collect ((at, block) :: acc)
      | Some _ | None -> collect acc)
  in
  List.iter (fun (at, block) -> ignore (Event_queue.add t.queue ~at block)) (collect [])

let enqueue t ~block ~deadline =
  Hashtbl.replace t.deadlines block deadline;
  ignore (Event_queue.add t.queue ~at:deadline block);
  let pending = Event_queue.length t.queue in
  if pending > 16 && pending > 2 * Hashtbl.length t.deadlines then compact t

let write t ~now ~block : Storage.Write_buffer.admit =
  if t.cfg.capacity_blocks = 0 then Needs_eviction
  else
    match Hashtbl.find_opt t.deadlines block with
    | Some _ ->
      t.absorbed <- t.absorbed + 1;
      if t.cfg.refresh_on_rewrite then
        enqueue t ~block ~deadline:(Time.add now t.cfg.writeback_delay);
      Absorbed
    | None ->
      if is_full t then Needs_eviction
      else begin
        t.admitted <- t.admitted + 1;
        enqueue t ~block ~deadline:(Time.add now t.cfg.writeback_delay);
        Admitted
      end

let remove t ~block =
  if Hashtbl.mem t.deadlines block then begin
    Hashtbl.remove t.deadlines block;
    t.cancelled <- t.cancelled + 1;
    true
  end
  else false

let rec pop_live t ~keep_if =
  match peek_time t.queue with
  | None -> None
  | Some at ->
    if not (keep_if at) then None
    else begin
      match pop t.queue with
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

let rec peek_live t =
  match pop t.queue with
  | None -> None
  | Some (at, block) -> begin
    match Hashtbl.find_opt t.deadlines block with
    | Some d when Time.equal d at ->
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
