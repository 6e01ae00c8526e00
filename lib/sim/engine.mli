(** Discrete-event simulation engine.

    The engine owns the simulated clock and an agenda of callbacks.  Running
    the engine repeatedly pops the earliest event, advances the clock to its
    timestamp, and invokes its callback; callbacks may schedule further
    events.  Time never moves backwards. *)

type t

val create : unit -> t
(** A fresh engine with the clock at {!Time.zero} and an empty agenda. *)

val now : t -> Time.t
(** The current simulated instant. *)

val schedule : t -> at:Time.t -> (t -> unit) -> Event_queue.handle
(** Schedule a callback at an absolute instant.
    @raise Invalid_argument if [at] is in the past. *)

val schedule_after : t -> after:Time.span -> (t -> unit) -> Event_queue.handle
(** Schedule a callback relative to the current instant. *)

val schedule_every :
  t -> every:Time.span -> ?until:Time.t -> (t -> unit) -> unit
(** Schedule a callback periodically, first firing one period from now.
    [until] is inclusive: a tick landing exactly on it fires, later ticks
    are never enqueued (the agenda holds nothing past [until], so a
    drained run's clock stops at the last tick).
    @raise Invalid_argument if [every] is zero. *)

val cancel : t -> Event_queue.handle -> unit

val run_until : t -> Time.t -> unit
(** Execute every event scheduled at or before the given instant, in
    (instant, insertion) order, including events the callbacks add within
    the window; then advance the clock to exactly that instant.  An
    instant before the clock runs nothing and leaves the clock where it
    is. *)

val run : t -> unit
(** Execute events until the agenda drains; the clock stops at the last
    event's instant. *)

val pending : t -> int
(** Number of events on the agenda. *)
