(** LRU block cache in DRAM.

    The conventional organization the paper contrasts against keeps a cache
    of disk blocks in DRAM: reads hit it or fault to disk; writes dirty it
    and are written back later (the update daemon) or on demand (eviction,
    sync).  The memory-resident file system needs none of this — which is
    exactly the comparison experiment E3 draws.  [Fs.Ffs] owns one.

    The card array's shared front cache ([Storage.Array]) is the same
    structure used clean: it inserts with [~dirty:false], so eviction never
    returns a victim, and writes and frees {!forget} the handle.

    This module is the pure replacement structure; device charging is the
    caller's job.  Every access is allocation-free: the LRU list lives in
    int arrays sized to the capacity, found through an open-addressing
    index.  Keys are block numbers: every keyed operation raises
    [Invalid_argument] on a negative key. *)

type t

val create : probe:string -> capacity_blocks:int -> t
(** [probe] prefixes the counters this cache records into:
    [probe ^ ".hits"], [".misses"] and [".writebacks"].
    @raise Invalid_argument if capacity is negative. *)

val capacity : t -> int
val size : t -> int

type lookup = Hit | Miss

(** {2 Counting contract}

    {!find} counts one hit or one miss and refreshes recency on a hit only.
    {!insert} counts {e nothing} (it reports dirty evictions through the
    {!writebacks} counter but never hit/miss) and always refreshes recency.
    So the classic miss sequence [find] (counts the miss) then [insert]
    (silent) counts exactly once — but any other composition miscounts:
    [insert] alone leaves the access invisible to hit/miss, and [find]
    followed by a hit-path [insert] touches recency twice, which changes
    eviction order relative to a single access.  Callers accounting one
    logical block access should use {!find_or_insert}. *)

val find : t -> key:int -> lookup
(** Probe for a block; a hit refreshes its recency and counts one hit, a
    miss counts one miss (and does not touch recency — the block is not
    resident). *)

val insert : t -> key:int -> dirty:bool -> int list
(** Make the block resident (MRU, with the given dirty state — an
    already-resident block keeps its dirty bit ORed).  Returns the dirty
    victims evicted to make room, which the caller must write back.  With
    zero capacity the block is not retained and, if dirty, is its own
    victim.  Counts no hit or miss; see the counting contract above. *)

val find_or_insert : t -> key:int -> dirty:bool -> lookup * int list
(** One logical block access: probe, and on a miss make the block resident
    as {!insert} would.  Counts exactly one hit or one miss and refreshes
    recency exactly once, whatever the outcome — immune to the
    [find]-then-[insert] double-touch.  Returns the outcome and the dirty
    victims (always [[]] on a hit); a hit or a miss without dirty victims
    allocates nothing. *)

val is_dirty : t -> key:int -> bool
val contains : t -> key:int -> bool

val forget : t -> key:int -> unit
(** Drop a block without writeback (its file was deleted). *)

val clear : t -> unit
(** Drop every block without writeback (a crash wiped DRAM).  The counters
    survive; {!reset_counters} zeroes them. *)

val take_dirty : t -> int list
(** All dirty blocks, oldest first; their dirty bits are cleared (they
    remain resident).  Used by sync and the update daemon. *)

val hits : t -> int
val misses : t -> int
val writebacks : t -> int
(** Dirty blocks returned by {!insert}/{!find_or_insert} evictions so far. *)

val reset_counters : t -> unit
(** Zero {!hits}, {!misses}, and {!writebacks} (residency and recency are
    untouched).  Part of [Machine.preload]'s start-clean contract. *)
