(** A priority queue of timestamped events: a binary min-heap.

    Events with equal timestamps are delivered in insertion order (FIFO),
    which keeps simulations deterministic.  Adds may land at any instant,
    including ones before the last popped event.  Events can be cancelled
    in O(1) (lazy deletion); add and pop are O(log n). *)

type 'a t

type handle
(** Identifies a scheduled event for cancellation. *)

val create : unit -> 'a t
(** A fresh, empty queue. *)

val add : 'a t -> at:Time.t -> 'a -> handle
(** Schedule a payload at an instant. *)

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
(** Number of live (non-cancelled, not yet popped) events. *)

val is_empty : 'a t -> bool
