(** A priority queue of timestamped events: a binary min-heap.

    Events with equal timestamps are delivered in insertion order (FIFO),
    which keeps simulations deterministic.  Adds may land at any instant,
    including ones before the last popped event.  Events can be cancelled
    in O(1) (lazy deletion); add and pop are O(log n).

    Reads allocate nothing: check {!is_empty}, read {!peek_time_exn} (an
    unboxed instant) or {!peek_exn}, then take the payload with
    {!pop_exn}.  An option or tuple result would box on every call, which
    the simulation engine would pay once per event. *)

type 'a t

type handle
(** Identifies a scheduled event for cancellation.  Unboxed: {!add}
    allocates the queue entry and nothing else. *)

val none : handle
(** A handle that names no event: cancelling it, on any queue, is a
    no-op.  A holder keeps it where it would otherwise keep [None], so a
    handle field costs no option box. *)

val create : unit -> 'a t
(** A fresh, empty queue. *)

val add : 'a t -> at:Time.t -> 'a -> handle
(** Schedule a payload at an instant. *)

val cancel : 'a t -> handle -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op. *)

exception Empty

val pop_exn : 'a t -> 'a
(** Remove the earliest live event and return its payload.
    @raise Empty when the queue has no live events. *)

val peek_time_exn : 'a t -> Time.t
(** The timestamp of the earliest live event, unboxed.
    @raise Empty when the queue has no live events. *)

val peek_exn : 'a t -> 'a
(** The payload of the earliest live event, left in the queue.
    @raise Empty when the queue has no live events. *)

val requeue_exn : 'a t -> unit
(** Move the earliest live event behind every other event at its instant,
    in place: delivery order is then exactly what popping it and adding
    its payload back at the same instant would give, but nothing is
    allocated and its handle stays valid.
    @raise Empty when the queue has no live events. *)

val filter_inplace : 'a t -> (Time.t -> 'a -> bool) -> unit
(** Drop every event for which the predicate is false (and every
    cancelled one) and rebuild the heap in place, in O(n).  Survivors keep
    their relative delivery order; a dropped event's handle behaves as if
    cancelled. *)

val length : 'a t -> int
(** Number of live (non-cancelled, not yet popped) events. *)

val is_empty : 'a t -> bool
