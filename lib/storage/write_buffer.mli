(** The battery-backed DRAM write buffer.

    Section 3.3's central mechanism: written data sits in (stable,
    battery-backed) DRAM for a writeback delay before going to flash.
    Because "a large percentage of write operations are to short-lived
    files or to file blocks that are soon overwritten", many buffered
    blocks are superseded or deleted before their deadline and never reach
    flash at all — reducing write traffic, latency, and wear.

    This module is the pure data structure: a set of dirty blocks with
    deadlines and a capacity bound.  Devices and flushing live in
    {!Manager}. *)

type config = {
  capacity_blocks : int;  (** 0 disables buffering (write-through). *)
  writeback_delay : Sim.Time.span;  (** Residence time before flush. *)
  refresh_on_rewrite : bool;
      (** Rewriting a dirty block restarts its deadline, so continuously
          hot blocks stay in DRAM — the paper's "keep data that is
          frequently written in DRAM". *)
}

val default_config : config
(** 1 MB of 512 B blocks, 30 s delay, refresh on rewrite — the Baker et
    al. configuration the paper quotes. *)

type t

val create : config -> t
(** A zero [capacity_blocks] is legal and means write-through: {!write}
    always answers [Needs_eviction] without touching any state, nothing is
    ever buffered, and no flush deadline ever exists ({!next_deadline} is
    [None], {!drain} is empty).
    @raise Invalid_argument on a negative capacity. *)

val config : t -> config
val size : t -> int
(** Dirty blocks currently held. *)

val capacity : t -> int
val is_full : t -> bool
val mem : t -> block:int -> bool

type admit = Absorbed | Admitted | Needs_eviction

val write : t -> now:Sim.Time.t -> block:int -> admit
(** Record a write.  [Absorbed]: the block was already dirty — no new
    traffic.  [Admitted]: inserted.  [Needs_eviction]: the buffer is full
    and nothing was inserted; evict, then retry.  With zero capacity,
    always [Needs_eviction]. *)

val remove : t -> block:int -> bool
(** Drop a block (its data died: deleted or truncated away).  True if it
    was dirty — a flush avoided. *)

val take_expired : ?limit:int -> t -> now:Sim.Time.t -> int list
(** Remove and return blocks whose deadline has passed, in deadline order,
    at most [limit] of them (unbounded by default). *)

val oldest : t -> int option
(** The block with the earliest deadline — the eviction victim. *)

val take : t -> block:int -> bool
(** Remove a specific block (used when evicting or force-flushing);
    true if present. *)

val next_deadline : t -> Sim.Time.t option

val drain : t -> int list
(** Remove and return everything, in deadline order ([flush_all]). *)

val pending_entries : t -> int
(** Queue entries currently held, including stale ones left behind by
    deadline refreshes and removals.  Compaction keeps this within a
    constant factor of {!size}; exposed so tests can pin the bound. *)

(** {1 Counters} *)

val absorbed_writes : t -> int
(** Writes that hit an already-dirty block. *)

val cancelled_blocks : t -> int
(** Dirty blocks dropped by {!remove} before flushing. *)

val admitted_blocks : t -> int

val reset_counters : t -> unit
(** Zero the three counters above; buffered contents are unaffected. *)
