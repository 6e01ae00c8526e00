(** A priority queue of timestamped events: a binary min-heap.

    Events with equal timestamps are delivered in insertion order (FIFO),
    which keeps simulations deterministic.  Adds may land at any instant,
    including ones before the last popped event.  Events can be cancelled
    in O(1) (lazy deletion); add and pop are O(log n).

    Reads allocate nothing: check {!is_empty}, read {!peek_time_exn} (an
    unboxed instant) or {!peek_exn}, then take the payload with
    {!pop_exn}.  An option or tuple result would box on every call, which
    the simulation engine would pay once per event.

    It queues the engine's events, whose handles cancel, and the trace
    generator's.  The write buffer keeps its own deadline heap in flat int
    arrays instead: it needs no handle, and an [add] here allocates an
    entry that every heap move then writes through the write barrier. *)

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

val length : 'a t -> int
(** Number of live (non-cancelled, not yet popped) events. *)

val is_empty : 'a t -> bool
