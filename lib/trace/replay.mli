(** Traces lowered for replay.

    {!Ssmc.Machine} replays every trace through one loop over
    {!Compiled} chunks, keeping its simulation engine's clock in step so
    that background activity (writeback timers, cleaners, battery
    accounting) interleaves with foreground operations at the right
    instants.  A streamed trace is lowered a chunk at a time
    ({!Compiled.chunks}), so replaying it holds one chunk, never the whole
    trace. *)

(** A trace lowered to flat struct-of-arrays form: replay loops index int
    arrays instead of matching on {!Record.op} and allocating per-record
    closures.  Compile once, replay many times — the arrays are immutable
    by convention. *)
module Compiled : sig
  type t = private {
    n : int;
    at_ns : int array;  (** Record instants, in trace time (ns). *)
    tag : int array;  (** One of the [tag_*] values below. *)
    file : int array;
    arg1 : int array;  (** offset (write/read) or size (truncate); else 0. *)
    arg2 : int array;  (** bytes (write/read); else 0. *)
  }
  (** Fields are exposed (read-only) so replay loops index the arrays
      directly; construct only through the functions below.  Every array
      has exactly [n] elements. *)

  val compile : Record.t list -> t
  (** Lower a whole trace (5 ints per record). *)

  val chunk_records : int
  (** Records per {!chunks} chunk: 4096. *)

  val chunks : Record.t Seq.t -> t Seq.t
  (** The trace lowered {!chunk_records} records at a time (the last chunk
      may be shorter; no chunk is empty).  Lazy: each chunk pulls its
      records when it is forced, and every node of the input is forced
      exactly once, so a channel-backed trace is safe to stream through
      it. *)

  val length : t -> int

  val record : t -> int -> Record.t
  (** Reconstruct record [i] (for fallback paths and tests). *)

  (** Dense dispatch tags; [tag] is always one of these. *)

  val tag_create : int
  val tag_write : int
  val tag_read : int
  val tag_truncate : int
  val tag_delete : int
end
