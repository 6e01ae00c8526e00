(** The conventional disk-based file system — the baseline.

    A Berkeley-FFS-flavoured file system over the magnetic-disk model: a
    superblock, a free bitmap, an inode table, and data blocks grouped into
    cylinder-group-style allocation regions so related data clusters near
    its inode (short seeks).  An LRU buffer cache in DRAM absorbs re-reads;
    writes are delayed in the cache and pushed out by a periodic update
    daemon (and by eviction and [sync]); metadata updates are synchronous
    by default, as in classic Unix.

    Everything in this module is machinery the paper's solid-state
    organization deletes: experiment E3 measures exactly that deletion. *)

type config = {
  fs_block_bytes : int;  (** File-system block size (default 4096). *)
  frag_per_block : int;
      (** Fragments per block (default 4, i.e. 1 KB fragments as in
          4.2BSD): a file's final partial block occupies only the
          fragments it needs, sharing a fragmented block with other
          files' tails. *)
  groups : int;  (** Allocation groups (default 8). *)
  ninodes : int;
  cache_blocks : int;  (** Buffer cache capacity, in fs blocks. *)
  sync_metadata : bool;  (** Write inode/directory updates through. *)
  update_interval : Sim.Time.span;  (** Update-daemon period (30 s). *)
}

val default_config : config

type t

val create_fs :
  ?config:config -> engine:Sim.Engine.t -> disk:Device.Disk.t -> dram:Device.Dram.t ->
  unit -> t
(** Format the disk and start the update daemon.
    @raise Invalid_argument if the configuration does not fit the disk. *)

val config : t -> config
val disk : t -> Device.Disk.t
val free_blocks : t -> int
(** Unallocated data blocks. *)

val used_bytes : t -> int
(** Space actually consumed in the data region, counting only the
    occupied fragments of shared fragment blocks. *)

val data_blocks : t -> int
(** Total data blocks the disk holds. *)

val cache : t -> Storage.Buffer_cache.t

val reset_counters : t -> unit
(** Zero the buffer cache's hit/miss/writeback counters; part of
    [Machine.preload]'s start-clean contract (cache residency is kept — a
    warm cache is state, not accounting). *)

val preload : t -> string -> size:int -> (unit, Fs_error.t) result
(** Install a file before the experiment starts (untimed, but laid out
    exactly as a normal write would be). *)

val check : t -> (unit, string) result
(** Consistency check (fsck): every data and indirect block reachable from
    an inode or directory is allocated in the bitmap exactly once, and the
    bitmap allocates nothing unreachable; the free count matches.  Used by
    the test suite after random operation sequences. *)

include Vfs.S with type t := t
