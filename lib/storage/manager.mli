(** The physical storage manager (Section 3.3).

    The manager owns the machine's DRAM write buffer and its flash device
    and presents a flat store of fixed-size logical blocks (one block = one
    flash sector's worth of data) to the file and virtual-memory systems.
    It implements every responsibility the paper assigns it:

    - buffering written data in battery-backed DRAM and flushing it to
      flash only after a writeback delay, so data that dies young never
      reaches flash;
    - keeping frequently-written (hot) blocks in DRAM and read-mostly data
      in flash: a rewrite of a dirty block restarts its writeback deadline
      ({!Write_buffer.config} [refresh_on_rewrite]), so a block rewritten
      more often than the delay never reaches flash;
    - log-structured allocation of flash space in segments, with garbage
      collection by a pluggable victim-selection policy;
    - wear leveling across erase sectors;
    - partitioning flash banks between read-mostly and frequently-written
      data;
    - free-list maintenance for both flash segments and buffer space.

    All operations happen at the owning engine's current instant; returned
    spans are the stall observed by the caller.  Background flushes and
    cleaning run as engine events and stall nobody directly — but they
    occupy flash banks, which later operations (and concurrent reads) wait
    for. *)

exception Out_of_space
(** Raised when live data exceeds what flash can hold even after cleaning. *)

type config = {
  segment_sectors : int;  (** Sectors (= blocks) per log segment. *)
  buffer : Write_buffer.config;
  cleaner : Cleaner.policy;
  wear : Wear.policy;
  banking : Banks.policy;
  max_flush_batch : int;
      (** Background flushes program at most this many blocks per timer
          firing, so foreground reads are never stuck behind an unbounded
          writeback burst; the remainder follows after [flush_spacing]. *)
  flush_spacing : Sim.Time.span;
  flush_watermark : float option;
      (** Capacity-threshold flushing: when buffer occupancy reaches this
          fraction, start flushing the oldest entries immediately instead
          of waiting for their writeback deadline.  Trades absorption for
          headroom (fewer synchronous evictions on bursts).  [None]
          disables it (pure writeback-delay policy). *)
  diff_log : Diff_log.config option;
      (** Page-differential logging: a flushed overwrite programs a small
          delta record against the block's durable base page instead of a
          whole page; reads reassemble base + chain at summed cost, and
          chains past the {!Diff_log.config} threshold merge back into a
          full page on the flush cursor.  [None] (the default) disables
          the policy — the flush path is then byte-identical to a manager
          built before it existed. *)
}

val default_config : config
(** 32-sector segments, the {!Write_buffer.default_config} buffer,
    cost-benefit cleaning, dynamic wear leveling, unified banks.  Hot
    blocks stay in DRAM because a rewrite restarts a buffered block's
    deadline.

    Allocation and cleaning decisions are answered from incrementally
    maintained per-bank indexes (O(log n) each, O(1) counters for
    statistics).  Whenever fewer than two segments are free, an
    allocation first cleans until two are free again or no victim is
    left. *)

type t

type block = int
(** A logical block handle. *)

val create :
  ?card:int ->
  config -> engine:Sim.Engine.t -> flash:Device.Flash.t -> dram:Device.Dram.t -> t
(** [card] is this manager's position in a multi-card {!Array}; it only
    changes probe labels ([Banks.probe_label]: ["storage.card<i>.*"]
    instead of the historical ["storage.manager.*"]) and timeline span
    args, never behavior.
    @raise Invalid_argument if the configuration is inconsistent with the
    flash geometry: segments must fit within a bank, partitioning must be
    valid, delta records must fit in a sector, and the flash must hold at
    least five segments so the cleaner has room to work. *)

val card : t -> int option

val block_bytes : t -> int
val capacity_blocks : t -> int
(** Data blocks flash can hold (excluding retired segments). *)

val alloc : t -> block
(** A fresh, empty logical block.  Handles are dense from zero and never
    reused. *)

val next_fresh_block : t -> block
(** The handle the next {!alloc} will return (also an exclusive upper
    bound on every handle ever allocated, including freed ones — remount
    pins even dead headers' ids).  A striped array uses this to rebuild
    its global allocation cursor after remounting every card. *)

val reserve_blocks : t -> next:block -> unit
(** Advance the allocation cursor so the next {!alloc} returns at least
    [next] (no-op if it already would).  After a remount, cards that lost
    never-flushed tail allocations restart their cursor below the global
    one; the array re-aligns them with this. *)

val revive_block : t -> block -> unit
(** Recreate an empty (Blank) block under a handle that sits below the
    allocation cursor but currently has no metadata — the gap handles
    {!reserve_blocks} skips over.  A striped array's rebuild streams a
    reinserted card back to life this way: reserve the cursor in one
    jump, then revive exactly the handles its degraded bookkeeping says
    existed and {!load_cold} the reconstructed ones.
    @raise Invalid_argument if the handle is at or beyond the cursor, or
    already exists. *)

val detach : t -> int
(** The card is leaving the machine: cancel any pending writeback timer
    and drop the write buffer's contents, so the dormant manager can
    never again touch a device that is no longer present.  Returns the
    number of dirty blocks dropped (what a surprise eject loses; call
    {!flush_all} first for an orderly eject and this returns 0).  The
    manager is introspection-only afterwards. *)

val write_block : t -> block -> Sim.Time.span
(** (Re)write a block.  Supersedes any flash copy immediately; the new data
    enters the write buffer (or goes straight to flash when buffering is
    off).  The returned span includes any synchronous eviction or cleaning
    the write had to wait for.
    @raise Invalid_argument on an unknown block.
    @raise Out_of_space. *)

val read_block : ?bytes:int -> t -> block -> Sim.Time.span
(** Read ([bytes] defaults to the whole block) from wherever the block
    lives: DRAM if buffered or never flushed, flash otherwise — including
    any wait for a busy flash bank. *)

(** {2 Cursor-threaded variants}

    A client operation that touches several blocks in sequence (a
    multi-block file read, a program load) must issue each access when the
    previous one finished, not stack them all at the engine's current
    instant — otherwise each access re-pays its predecessors' bank waits.
    The [_at] variants take an explicit issue time and return the
    completion time, for threading through a loop. *)

val read_block_at : ?bytes:int -> t -> at:Sim.Time.t -> block -> Sim.Time.t
(** @raise Invalid_argument if [at] is before the engine's clock would
    allow scheduling semantics to hold (it never is in practice: pass the
    previous completion). *)

val write_block_at : t -> at:Sim.Time.t -> block -> Sim.Time.t

val free_block : t -> block -> unit
(** Discard a block: cancels its buffered copy (a flush avoided) and kills
    its flash copy (space the cleaner will recycle). *)

val load_cold : t -> block -> unit
(** Place a block directly into flash through the cold-data path (the
    read-mostly banks under partitioning), bypassing the buffer.  Used to
    preload long-lived data — installed programs, existing files. *)

val flush_all : t -> Sim.Time.span
(** Synchronously flush every dirty block (sync / orderly shutdown). *)

(** {1 Introspection} *)

type stats = {
  client_writes : int;  (** write_block calls. *)
  client_reads : int;
  absorbed_writes : int;  (** Writes that hit an already-dirty block. *)
  cancelled_blocks : int;  (** Dirty blocks freed before flushing. *)
  blocks_flushed : int;  (** Client blocks programmed into flash. *)
  blocks_cleaned : int;  (** Live blocks copied by the cleaner. *)
  cold_loads : int;
  hot_retained : int;
      (** Always 0: a rewrite restarting the deadline is the only way a hot
          block stays in DRAM, so no flush is ever deferred.  Kept because
          the repository benchmark reads and pins it; it goes with the
          next benchmark change. *)
  cleanings : int;  (** Victim segments cleaned. *)
  dirty_blocks : int;  (** Currently in the buffer. *)
  free_segments : int;
  retired_segments : int;
  live_blocks : int;  (** Blocks with a live flash copy. *)
  write_reduction : float;
      (** 1 - flushed/writes: the Section 3.3 headline metric. *)
  write_amplification : float;
      (** (flushed + cleaned) / flushed. *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

val wear_evenness : t -> Wear.evenness
(** Erase-count spread across segments. *)

val buffer_pending_entries : t -> int
(** Writeback-queue entries, stale refresh leftovers included (see
    {!Write_buffer.pending_entries}) — the gauge the allocation benches
    pin to show compaction keeps the queue bounded. *)

val diff_stats : t -> Diff_log.stats option
(** Chain and delta-traffic counters; [None] when diff logging is off. *)

val delta_chain_length : t -> block -> int
(** Delta records currently chained against the block's base page (0
    without a chain or with diff logging off). *)

val flash : t -> Device.Flash.t

val segments : t -> Segment.t array
(** The segment array, indexed by segment id.  Read-only by contract:
    the manager's indexes track every state change it makes, and a
    caller's mutation would silently desynchronize them.  Segment [i]
    lives in bank [i / (nsegments / nbanks)]. *)

val next_free_segment : t -> purpose:Banks.purpose -> restrict:bool -> int option
(** The free segment an acquisition for [purpose] would open in the
    current state: least-busy bank first, then the wear policy's pick,
    then the lowest id.  [restrict] limits the search to the banks
    [purpose] may use.  Observes only (an acquisition first cleans if
    fewer than two segments are free). *)

val next_victim : t -> purpose:Banks.purpose option -> int option
(** The segment a cleaning pass would take now: a static wear-leveling
    relocation if one is due, else the cleaner policy's choice; [Some p]
    limits it to the banks [p] may use.  Observes only. *)

val dram : t -> Device.Dram.t
val engine : t -> Sim.Engine.t
val nsegments : t -> int
val segment_of_block : t -> block -> int option
(** The segment holding the block's flash copy, if flushed. *)

val location_of_block : t -> block -> (int * int) option
(** The exact [(segment, slot)] of the block's flash copy, if flushed —
    the placement the crash-consistency harness asserts survives a
    remount. *)

(** A point-in-time view of one segment, for comparing physical flash
    state across a crash or between managers. *)
type segment_snapshot = {
  seg_state : Segment.state;
  seg_live : int;  (** Live blocks resident in the segment. *)
  seg_used : int;  (** Programmed slots since the last erase. *)
  seg_erases : int;
  seg_retired : bool;
}

val segment_snapshots : t -> segment_snapshot array
(** One snapshot per segment, indexed by segment id. *)

val block_is_dirty : t -> block -> bool
(** Is the block's current data in the DRAM write buffer? *)

val block_exists : t -> block -> bool
(** Does the manager know this handle (allocated and not freed)? *)

val known_blocks : t -> block list
(** Every live handle, ascending.  O(blocks); for recovery tools. *)

val reset_traffic : t -> unit
(** Zero the traffic counters and device statistics (after preloading). *)

(** {1 Crash recovery}

    Every programmed sector carries a small header naming the logical
    block it holds, a monotonically increasing version, and a liveness bit
    (the log-structured convention).  Superseding or deleting a block
    clears its old header's liveness bit in place — flash can clear bits
    without an erase — so freed data stays freed across a crash.  One
    deliberate exception: a block rewritten while its new data is still
    dirty in DRAM keeps its previous flash copy live, so a crash rolls the
    block back to the last durable version instead of losing it entirely.

    If the machine loses {e all} power — both batteries — the DRAM-resident
    block map and the write buffer are gone, but flash and its headers
    survive; a remount rebuilds the map by scanning them.  Battery-backed
    DRAM exists precisely so this scan (and the loss of buffered data)
    almost never happens. *)

type remount_report = {
  sectors_scanned : int;
  live_recovered : int;  (** Blocks whose newest copy was found in flash. *)
  stale_discarded : int;  (** Superseded copies encountered and killed. *)
  buffered_lost : int;
      (** Dirty blocks that existed only in the (now lost) write buffer. *)
}

val crash_and_remount : t -> t * Sim.Time.span * remount_report
(** Simulate total power loss and recovery: a fresh manager over the same
    flash device, its block map rebuilt by reading every sector's header.
    Block handles for recovered blocks remain valid on the new manager.
    The returned span is the scan time (the recovery-latency cost the
    battery-backed organization avoids).  The crashed manager is dead
    afterwards: its pending writeback timer is cancelled and its buffer
    emptied, so it can never touch the shared flash again. *)

val pp_remount_report : Format.formatter -> remount_report -> unit
