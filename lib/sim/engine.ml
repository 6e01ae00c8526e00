type t = {
  mutable clock : Time.t;
  agenda : callback Event_queue.t;
}

and callback = t -> unit

(* The agenda is a timing wheel: the engine never schedules in the past,
   which is the wheel's one constraint. *)
let create () =
  { clock = Time.zero; agenda = Event_queue.create ~kind:Event_queue.Wheel () }

let now t = t.clock

let schedule t ~at f =
  if Time.( < ) at t.clock then invalid_arg "Engine.schedule: instant in the past";
  Event_queue.add t.agenda ~at f

let schedule_after t ~after f = schedule t ~at:(Time.add t.clock after) f

let schedule_every t ~every ?until f =
  if Time.span_to_ns every = 0 then invalid_arg "Engine.schedule_every: zero period";
  let within at = match until with None -> true | Some limit -> Time.( <= ) at limit in
  (* Decide before scheduling, not when the tick fires: the old shape
     enqueued one phantom event a full period past [until], which kept a
     drained run's clock (and whatever idle accounting hangs off it)
     running beyond the requested window. *)
  let rec fire engine =
    f engine;
    let next = Time.add engine.clock every in
    if within next then ignore (schedule engine ~at:next fire)
  in
  let first = Time.add t.clock every in
  if within first then ignore (schedule t ~at:first fire)

let cancel t handle = Event_queue.cancel t.agenda handle

(* The innermost simulation loop: peek the timestamp (an unboxed int), then
   take the payload, so delivering an event allocates nothing.  Events
   sharing a timestamp are delivered as one batch — the clock is written
   once per group, and the wheel extracts the whole group in one touch
   (callbacks scheduling more work at the current instant extend the
   batch, preserving per-event semantics). *)
let deliver_group t at =
  t.clock <- at;
  let more = ref true in
  while !more do
    let f = Event_queue.pop_exn t.agenda in
    f t;
    if
      Event_queue.is_empty t.agenda
      || not (Time.equal (Event_queue.peek_time_exn t.agenda) at)
    then more := false
  done

let step t =
  if Event_queue.is_empty t.agenda then false
  else begin
    deliver_group t (Event_queue.peek_time_exn t.agenda);
    true
  end

let run_until t limit =
  let running = ref true in
  while !running do
    if Event_queue.is_empty t.agenda then running := false
    else begin
      let at = Event_queue.peek_time_exn t.agenda in
      if Time.( <= ) at limit then deliver_group t at else running := false
    end
  done;
  if Time.( < ) t.clock limit then t.clock <- limit

let run t = while step t do () done

let advance_to t at = if Time.( < ) t.clock at then begin
    (* Deliver any events that should have fired before [at] first. *)
    run_until t at
  end

let pending t = Event_queue.length t.agenda
