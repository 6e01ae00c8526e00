type t = {
  mutable clock : Time.t;
  agenda : callback Event_queue.t;
}

and callback = t -> unit

let create () = { clock = Time.zero; agenda = Event_queue.create () }

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
   take the payload, so delivering an event allocates nothing.  The agenda
   orders events by (instant, insertion), so events a callback schedules
   at the current instant run after those already there, in this call. *)
let rec deliver t limit =
  if not (Event_queue.is_empty t.agenda) then begin
    let at = Event_queue.peek_time_exn t.agenda in
    if Time.( <= ) at limit then begin
      t.clock <- at;
      let f = Event_queue.pop_exn t.agenda in
      f t;
      deliver t limit
    end
  end

let run_until t limit =
  deliver t limit;
  if Time.( < ) t.clock limit then t.clock <- limit

let run t = deliver t (Time.of_ns max_int)

let pending t = Event_queue.length t.agenda
