(** The battery-backed DRAM write buffer.

    Section 3.3's central mechanism: written data sits in (stable,
    battery-backed) DRAM for a writeback delay before going to flash.
    Because "a large percentage of write operations are to short-lived
    files or to file blocks that are soon overwritten", many buffered
    blocks are superseded or deleted before their deadline and never reach
    flash at all — reducing write traffic, latency, and wear.

    This module is the pure data structure: a set of dirty blocks with
    deadlines and a capacity bound.  Devices and flushing live in
    {!Manager}.  Each block's deadline sits in a table indexed by block,
    and the deadline order in a binary min-heap of (deadline, sequence
    number, block) held in three flat int arrays, so no write, peek,
    expiry or removal allocates once the arrays have grown to their
    working size. *)

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
    ever buffered, and no flush deadline ever exists.
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
    always [Needs_eviction].  Block ids are dense from zero (a manager's
    handles): the deadline table is an array indexed by block.
    @raise Invalid_argument on a negative block. *)

val remove : t -> block:int -> bool
(** Drop a block (its data died: deleted or truncated away).  True if it
    was dirty — a flush avoided. *)

val take : t -> block:int -> bool
(** Remove a specific block (used when evicting or force-flushing);
    true if present. *)

(** {1 Deadline order}

    Nothing here allocates.  The peeks ({!oldest_exn},
    {!next_deadline_exn}) discard stale queue entries at the head and
    then move the earliest block behind the blocks that share its
    deadline, so repeated peeks visit same-deadline blocks in turn;
    {!take_expired_exn} discards stale entries only while they are due.
    Which entries are discarded when is observable through
    {!pending_entries}, and through the order in which a block removed and
    re-admitted at an equal deadline is delivered. *)

val oldest_exn : t -> int
(** The block with the earliest deadline — the eviction victim.
    @raise Not_found when no block is dirty. *)

val next_deadline_exn : t -> Sim.Time.t
(** The earliest deadline.
    @raise Not_found when no block is dirty. *)

val take_expired_exn : t -> now:Sim.Time.t -> int
(** Remove and return the block with the earliest deadline at or before
    [now]; repeated calls return expired blocks in deadline order.
    @raise Not_found when no dirty block's deadline has passed. *)

val drain : t -> int list
(** Remove and return everything, in deadline order ([flush_all]). *)

val pending_entries : t -> int
(** The entries the deadline queue holds, stale ones included: each admit
    and each refresh adds one, and stale ones leave when a peek or an
    expiry meets them at the head, or when compaction (which runs once
    they outnumber the live ones) drops them.  Rewrites of one block at
    one instant leave entries that all match its deadline, so compaction
    keeps them all.  Exposed so tests can compare the queue op for op. *)

(** {1 Counters} *)

val absorbed_writes : t -> int
(** Writes that hit an already-dirty block. *)

val cancelled_blocks : t -> int
(** Dirty blocks dropped by {!remove} before flushing. *)

val admitted_blocks : t -> int

val reset_counters : t -> unit
(** Zero the three counters above; buffered contents are unaffected. *)
