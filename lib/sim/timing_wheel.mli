(** Hierarchical timing wheel: O(1) add/cancel and amortized-O(1) pop for
    the near-FIFO instant distributions a replay-driven simulation
    produces (the binary heap pays O(log n) per operation).

    The wheel is one of the two implementations behind {!Event_queue} —
    use that module unless you are the queue itself.  It shares
    {!Event_queue}'s entry representation with the heap.

    Contract, narrower than the heap's:
    - Instants are non-negative and {!add} must not move backwards past
      the wheel's cursor, which trails the minimum instant ever popped.
      The simulation engine guarantees this (it refuses to schedule in
      the past); standalone users get [Invalid_argument] otherwise.
    - {!peek_exn} is non-destructive: it never advances the cursor, so an
      abandoned peek (e.g. a replay driver looking one event past its
      window) leaves earlier instants schedulable.
    - Cancellation is lazy: mark [cancelled] on the entry (via
      {!Event_queue.cancel}); the wheel drops the entry when it next
      touches its slot. *)

type 'a entry = {
  at : Time.t;
  seq : int;  (** Tie-break: equal instants deliver in [seq] order. *)
  payload : 'a;
  mutable cancelled : bool;
}

type 'a t

exception Empty

val create : unit -> 'a t

val dummy : unit -> 'a entry
(** A shared sentinel for vacated entry slots (its payload must never be
    read).  Exposed for {!Event_queue}'s heap, which nulls popped cells
    with it to avoid retaining payload closures. *)

val add : 'a t -> 'a entry -> unit
(** Insert an entry at [entry.at].
    @raise Invalid_argument if the instant is before the wheel cursor. *)

val peek_exn : 'a t -> 'a entry
(** The earliest live entry, without structural movement.
    @raise Empty when no live entries remain. *)

val pop_exn : 'a t -> 'a entry
(** Remove and return the earliest live entry.  Advances the cursor to
    its instant: later adds must be at or after it.
    @raise Empty when no live entries remain. *)

val clear : 'a t -> unit
(** Drop every entry (and every reference to their payloads). *)
