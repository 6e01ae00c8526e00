(** A priority queue of timestamped events.

    Events with equal timestamps are delivered in insertion order (FIFO),
    which keeps simulations deterministic.  Events can be cancelled in O(1)
    (lazy deletion).

    Two interchangeable structures implement the queue, selected at
    creation: a binary min-heap (the reference: O(log n), no insertion
    constraints) and a hierarchical {!Timing_wheel} (O(1) for the
    near-FIFO instant distributions replay produces, but adds must not
    land before the last popped instant — the engine's scheduling rule
    already guarantees that).  The engine always runs on the wheel; the
    test suite checks both kinds against a reference model. *)

type 'a t

type handle
(** Identifies a scheduled event for cancellation. *)

type kind = Heap | Wheel

val create : ?kind:kind -> unit -> 'a t
(** A fresh queue; [kind] defaults to [Heap], which accepts adds at any
    instant.  Choose [Wheel] only for engine-shaped workloads where
    instants never precede the last delivery. *)

val add : 'a t -> at:Time.t -> 'a -> handle
(** Schedule a payload at an instant.
    @raise Invalid_argument under [Wheel] if [at] precedes the
    instant of the last popped event. *)

val cancel : 'a t -> handle -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op. *)

val pop : 'a t -> (Time.t * 'a) option
(** Remove and return the earliest live event, or [None] if empty. *)

val peek_time : 'a t -> Time.t option
(** The timestamp of the earliest live event. *)

exception Empty

(** Allocation-free variants for hot loops: {!peek_time} and {!pop} box
    their results ([Some], a tuple) on every call, which the simulation
    engine pays once per event.  Pattern: check {!is_empty}, read
    {!peek_time_exn}, then take the payload with {!pop_exn}. *)

val pop_exn : 'a t -> 'a
(** Remove the earliest live event and return its payload.
    @raise Empty when the queue has no live events. *)

val peek_time_exn : 'a t -> Time.t
(** The timestamp of the earliest live event, unboxed.
    @raise Empty when the queue has no live events. *)

val length : 'a t -> int
(** Number of live (non-cancelled) events. *)

val is_empty : 'a t -> bool

val clear : 'a t -> unit
(** Drop every pending event (and the queue's references to their
    payloads), and reset the FIFO tie-break counter so a reused queue
    reproduces a fresh one's delivery order exactly. *)
