(** A striped array of flash cards behind one block interface.

    The scale-out analog of Section 3.3's bank partitioning: one machine,
    several PCMCIA flash cards, each owned by an independent {!Manager}
    over its own {!Device.Flash.t}.  Blocks map to [(card, local)] by a
    pure {!Striping} policy — no placement table — so a program or erase
    in flight on one card never delays operations routed to another: every
    card has its own banks, its own write buffer, and its own writeback
    timer on the shared engine (queue occupancy is exactly the engine's
    timer state, per card).  Busy time is accounted per card through each
    manager's ["storage.card<i>.busy_us"] probe summary.

    In front of the cards sits an optional shared front cache, a
    {!Buffer_cache} used clean: a DRAM LRU over global handles that serves
    cross-card hot reads without touching any card.  Its counters record
    under ["storage.front_cache.*"].

    Under a {!Striping.Parity} policy the array additionally maintains a
    parity strip per stripe (RAID-4/5 over removable cards): every client
    write also updates the row's parity block on another card — the
    small-write penalty of two extra reads and one extra program — and in
    exchange the array survives losing any single card.  With a card out
    ({!eject_card}) the array runs {e degraded}: reads of the missing
    card's blocks are reconstructed from the surviving row members at
    summed read cost, writes fold the new version into parity, and
    allocation continues.  {!reinsert_card} accepts blank replacement
    media and rebuilds the missing card's contents in the background
    (batched engine events interleaved with foreground traffic) until the
    array is healthy again.  The write-ahead parity ordering is {e not}
    modeled — there is no write hole in the simulation because a write's
    data and parity updates are applied atomically within one engine
    event.

    All managers share one engine and one DRAM device; each card gets its
    own flash device.  All flash devices must share a sector size.

    With one card, an identity striping, and the front cache off, every
    operation forwards verbatim to the single manager — the array is
    byte-identical to the pre-array path (held by [test_store_array.ml]
    and the [e13_cards1_equiv] floor of [bench/main.exe --check]); with a
    non-parity striping the array is byte-identical to the pre-parity
    path (held by the E13 QUICK snapshot [--check] compares). *)

type t

val create :
  ?front_cache_blocks:int ->
  striping:Striping.policy ->
  Manager.config ->
  engine:Sim.Engine.t ->
  flashes:Device.Flash.t array ->
  dram:Device.Dram.t ->
  t
(** One manager per element of [flashes], all sharing [engine] and [dram].
    [front_cache_blocks] (default 0 = off) sizes the shared front cache.
    @raise Invalid_argument on an empty [flashes], mismatched sector
    sizes, an invalid striping policy, or any per-card configuration
    error {!Manager.create} would reject. *)

val ncards : t -> int
val striping : t -> Striping.policy
val manager : t -> int -> Manager.t
(** The card's manager, for per-card introspection (stats, wear,
    segment state).  Mutating through it bypasses the front cache —
    introspection only.  While the card is missing this is its dormant
    pre-eject manager; during a rebuild, the fresh one. *)

val block_bytes : t -> int
val capacity_blocks : t -> int
(** Sum over cards (parity capacity included — the redundancy tax is
    visible as client-usable space being [ncards-1] of these). *)

val card_of_block : t -> Manager.block -> int
(** Where the policy places this global handle. *)

(** {1 Client operations} — the same surface {!Manager} exposes; global
    handles are dense from zero and never reused, exactly like a single
    manager's.  Under parity, handles name data blocks only; parity
    blocks are internal. *)

val alloc : t -> Manager.block
val write_block : t -> Manager.block -> Sim.Time.span
val write_block_at : t -> at:Sim.Time.t -> Manager.block -> Sim.Time.t
val read_block : ?bytes:int -> t -> Manager.block -> Sim.Time.span
val read_block_at : bytes:int -> t -> at:Sim.Time.t -> Manager.block -> Sim.Time.t
(** A front-cache hit is served at DRAM read cost without touching the
    block's card; a miss reads through the card and makes the handle
    resident only after the read returns (a raising read leaves nothing
    resident).  With the block's card missing, a miss reconstructs the
    block from the surviving row members at summed read cost. *)

val free_block : t -> Manager.block -> unit
val load_cold : t -> Manager.block -> unit
(** Under parity, the first cold load of a row also cold-loads the row's
    parity block (a factory image ships with parity precomputed), so
    later cold loads of the row are parity-free.  [free_block] rewrites
    parity without reads: the delta is computable from the copy being
    dropped, and free stays an uncharged metadata operation. *)

val flush_all : t -> Sim.Time.span
(** Drain every card's write buffer, grouped by destination card (one
    contiguous drain per card, never interleaved across cards), cards
    flushing in parallel: the returned span is the slowest card's.  The
    ["storage.array.flush_card_groups"] probe counts cards that had work
    per drain.  A missing card is skipped. *)

(** {1 Card eject / reinsert (parity arrays only)} *)

type eject_report = {
  lost_buffered : int;
      (** Dirty blocks dropped with the write buffer on a surprise eject
          (0 when orderly).  Their newest versions remain reconstructible:
          parity was updated when they were written. *)
  degraded_blocks : int;
      (** Blocks on the ejected card whose reads now reconstruct. *)
}

val pp_eject_report : Format.formatter -> eject_report -> unit

val eject_card : ?surprise:bool -> t -> card:int -> eject_report
(** Remove [card] from the array.  Orderly (default) flushes the card
    first; [surprise] drops its buffered dirty data on the floor — but
    under parity the newest version of every block stays reconstructible,
    because the parity update of each write landed on a {e different}
    card's buffer.  The array continues degraded: every operation works,
    at degraded cost.  The dormant manager stays readable through
    {!manager} for introspection.
    @raise Invalid_argument on a non-parity striping (nothing would
    survive), when a card is already out, or on a bad index. *)

val reinsert_card : t -> card:int -> unit
(** A blank replacement card in the missing slot: the old flash is
    factory-reset, a fresh manager takes over, and a background rebuild
    streams the missing contents back — 32 slots per engine event,
    successive events at least 1 ms apart, foreground traffic
    interleaving freely.  Slots the rebuild
    has not reached yet keep their degraded behavior; the array turns
    [`Healthy] when the rebuild completes.
    @raise Invalid_argument unless the array is degraded and [card] is
    the missing one. *)

val health : t -> [ `Healthy | `Degraded of int | `Rebuilding of int ]
(** The payload names the missing / rebuilding card. *)

(** {1 Introspection} *)

val stats : t -> Manager.stats
(** Client-visible counters: per-card sums with the array's own parity
    maintenance and reconstruction traffic subtracted, and client
    operations that never reached a card (front-cache hits, degraded
    reads and writes served from parity) added back.  [blocks_flushed]
    keeps parity programs — the parity write penalty is visible as
    [write_reduction] dropping (possibly below zero).  Under parity the
    [live_blocks]/[dirty_blocks] gauges are recounted from the client's
    view: parity blocks are invisible, and a missing card's blocks are
    charged to their parity home (dirty while the parity update is
    buffered, live once flushed) — so [live + dirty] always equals the
    blocks the namespace can reach, healthy or degraded.  Segment
    gauges ([free_segments], [retired_segments]) keep the dormant
    card's frozen values while it is out. *)

type parity_stats = {
  parity_writes : int;  (** Parity-block programs issued by the array. *)
  parity_reads : int;
      (** Reads issued for parity deltas, reconstruction, and rebuild. *)
  parity_cold_loads : int;  (** Parity blocks cold-loaded (incl. rebuild). *)
  degraded_writes : int;  (** Client writes folded into parity only. *)
  degraded_reads : int;  (** Client reads of missing-card blocks (non-front-hit). *)
  degraded_cold_loads : int;  (** Cold loads of missing-card blocks. *)
  reconstructed_reads : int;  (** Degraded reads that XOR-reconstructed. *)
  rebuilt_blocks : int;  (** Blocks streamed onto reinserted cards. *)
  last_rebuild : Sim.Time.span option;
      (** Wall-clock of the last completed rebuild. *)
}

val parity_stats : t -> parity_stats
(** All zero / [None] for non-parity stripings. *)

val pp_parity_stats : Format.formatter -> parity_stats -> unit

val card_stats : t -> int -> Manager.stats
(** Per card. *)

val diff_stats : t -> Diff_log.stats option
(** Per-card page-differential counters summed; [None] when no card has
    diff logging enabled. *)

val dram : t -> Device.Dram.t
val engine : t -> Sim.Engine.t
val segment_of_block : t -> Manager.block -> int option
(** The card-local segment holding the block's flash copy, if flushed
    (pair with {!card_of_block} to disambiguate).  While the block's
    card is missing, its durable home is its {e parity} block: this
    reports the parity block's segment once the parity copy is flushed
    (and [None] while the parity update is still buffered — the block
    is {!block_is_dirty} then), so "buffered or in flash" stays true
    for every reachable block even degraded. *)

val block_is_dirty : t -> Manager.block -> bool
val block_exists : t -> Manager.block -> bool
(** A missing card's blocks still exist (they are reconstructible) until
    freed — or until a crash while degraded loses the parity copy. *)

val front_cache_capacity : t -> int
val front_cache_hits : t -> int
val front_cache_misses : t -> int
val reset_traffic : t -> unit

(** {1 Crash recovery} *)

val crash_and_remount : t -> t * Sim.Time.span * Manager.remount_report
(** Total power loss: every present card remounts from its own sector
    headers (scans run in parallel — the span is the slowest card's), the
    front cache is wiped (it was DRAM), reports are summed, and the
    global allocation cursor is rebuilt from the recovered per-card
    cursors — cards that lost different numbers of never-flushed tail
    allocations are re-aligned, so handles stay collision-free.  Global
    handles for recovered blocks remain valid.

    A degraded array remounts degraded: the missing card stays out, and
    the degraded bookkeeping is re-derived from what flash kept — a
    missing-card block survives iff its parity block was flushed before
    the crash.  A crash during a rebuild remounts every card (the
    replacement is physically present), keeps whatever the rebuild had
    already flushed, and restarts the rebuild over the remainder. *)
