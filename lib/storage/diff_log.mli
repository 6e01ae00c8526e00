(** Page-differential logging state (Section 3.3's erase/write penalty,
    attacked the Kim/Whang/Song way).

    Instead of rewriting a whole flash page when a previously-flushed
    block is overwritten, the manager programs only a small {e delta}
    record against the block's durable {e base} page.  Deltas chain in
    overwrite order; a read reassembles the block by reading the base
    page plus every delta in the chain (summed cost), and once a chain
    reaches the configured length it is merged back into a single full
    base page.

    This module is the pure bookkeeping: which blocks have chains, the
    sectors of their delta records in position order, and when a chain is
    due for a merge.  A chain's base page is the block's home sector in
    {!Manager}'s block table, which this table does not repeat.  Devices,
    headers, and scheduling live in {!Manager}, which consults this table
    on the flush, read, free, cleaning, and remount paths.  A manager
    created without a diff config never touches this module, so the plain
    flush path is byte-identical with the policy off. *)

type config = {
  delta_bytes : int;
      (** Bytes programmed per delta record (the encoded diff plus its
          sector header).  The cost model: an overwrite flush programs
          this many bytes instead of a whole page. *)
  merge_len : int;
      (** Merge a chain back into a full base page once it holds this
          many deltas. *)
}

val default_config : config
(** 64-byte deltas, merge at 4 deltas. *)

type t

val create : config -> t
val config : t -> config

val has_chain : t -> block:int -> bool

(** {2 Chains}

    Allocation-free reads: a chain is the sectors of its delta records,
    dense by position from 0.  Each raises [Invalid_argument] when the
    block has no chain. *)

val chain_length : t -> block:int -> int
(** Delta records in the block's chain; 0 without a chain.  The next
    {!push_delta} takes this position. *)

val delta_sector : t -> block:int -> int -> int
(** [delta_sector t ~block i]: the sector of the record at position [i],
    [0 <= i <] {!chain_length}. *)

val delta_pos : t -> block:int -> sector:int -> int
(** The position of the block's delta record in [sector].
    @raise Invalid_argument if no record of the chain is there. *)

val begin_chain : t -> block:int -> unit
(** Start an empty chain against the block's home sector.
    @raise Invalid_argument if the block already has a chain. *)

val push_delta : t -> block:int -> pos:int -> sector:int -> unit
(** Append a delta record to the chain.  [pos] must equal {!chain_length}
    (dense positions are what remount's truncation rule relies on).
    @raise Invalid_argument without a chain or on a position gap. *)

val should_merge : t -> block:int -> bool
(** Has the chain reached [merge_len] deltas? *)

val relocate_delta : t -> block:int -> pos:int -> sector:int -> unit
(** The cleaner moved the delta at [pos] to [sector]. *)

val drop : t -> block:int -> unit
(** Forget the block's chain (after a merge, or when the block is
    freed).  No-op if it has none. *)

(** {1 Traffic counters}

    Structural state above; programmed/merged/reassembled counts below.
    The manager bumps these where it charges the device, so they stay in
    lockstep with the flash traffic counters. *)

val note_delta_programmed : t -> unit
(** One delta record of [delta_bytes] programmed. *)

val note_merge : t -> unit
val note_reassembly : t -> unit

type stats = {
  chains : int;  (** Blocks currently holding a delta chain. *)
  deltas_flushed : int;  (** Overwrite flushes encoded as deltas. *)
  delta_bytes_flushed : int;
  merges : int;  (** Chains folded back into a full base page. *)
  reassembled_reads : int;  (** Reads that walked a chain. *)
}

val stats : t -> stats
val add_stats : stats -> stats -> stats
(** Field-wise sum, for aggregating a card array's per-card tables. *)

val reset_counters : t -> unit
(** Zero the traffic counters; chain state is unaffected. *)
