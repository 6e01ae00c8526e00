(** The memory-resident file system (Section 3.1).

    All metadata — directories, inodes, block maps — lives in battery-backed
    DRAM and is reached by ordinary memory accesses: no buffer cache, no
    clustering, no multi-level indirect blocks (a file's block map is a flat
    extent array).  File data lives wherever the physical storage manager
    put it: dirty and hot blocks in DRAM, long-lived data in flash, read in
    place.  Writes supersede flash copies copy-on-write style: the affected
    block's new contents go to the DRAM write buffer and reach flash only
    if they survive the writeback delay.

    Implements {!Vfs.S}. *)

type t

(** The flat per-file block map.  Stored unboxed — one int per slot, with a
    sentinel for holes — because every replayed data operation walks it.
    Exposed for white-box property tests; file-system clients never need
    it. *)
module Blockmap : sig
  type t

  val create : unit -> t

  val length : t -> int
  (** Slots in use (holes included): one past the highest index ever set. *)

  val no_block : int
  (** The hole sentinel returned by {!find}; never a valid handle. *)

  val find : t -> int -> int
  (** The handle at a slot, or {!no_block} for a hole or an index at or
      beyond {!length}.  Allocation-free. *)

  val set : t -> int -> Storage.Manager.block -> unit
  (** Store a handle, growing the map as needed (intermediate slots become
      holes).  @raise Invalid_argument on a negative handle. *)

  val crop : t -> int -> (Storage.Manager.block -> unit) -> unit
  (** [crop t n f] shrinks to [n] slots and hands each dropped live handle
      to [f] (a truncate's free), in ascending slot order, building no
      list.  Negative [n] behaves as [0]. *)

  val iter_live : (Storage.Manager.block -> unit) -> t -> unit
end

val create_fs : manager:Storage.Manager.t -> unit -> t
(** A fresh, empty file system ("/" exists) over a single manager
    (equivalent to [create_fs_store ~store:(Single manager)]). *)

val create_fs_store : store:Storage.Store.t -> unit -> t
(** Mount over any block store — a single manager or a striped multi-card
    array; the fs is oblivious to which. *)

val store : t -> Storage.Store.t

val manager : t -> Storage.Manager.t
(** The single underlying manager.
    @raise Invalid_argument when mounted on a multi-card array. *)

val preload : t -> string -> size:int -> (unit, Fs_error.t) result
(** Install a file of [size] bytes directly into flash through the
    cold-data path — existing long-lived data present before the
    simulation starts (programs, archives).  Untimed setup. *)

val metadata_bytes : t -> int
(** Approximate DRAM occupied by metadata (inodes + directory entries) —
    the space the paper says is saved by not duplicating it in a cache. *)

val file_blocks : t -> string -> (Storage.Manager.block list, Fs_error.t) result
(** The storage-manager blocks backing a file, for experiments that need to
    reason about placement. *)

val enumerate : t -> (string * int * (int * Storage.Manager.block) list) list
(** Every regular file: (path, size, [(slot, block)] for each backing
    block in slot order), sorted by path.  Slot indices keep holes — and
    blocks a crash removed from the middle of a file — so a namespace
    rebuilt by {!adopt} leaves every block at its original offset.  Used
    to checkpoint a namespace (removable cards, cold restarts) and by
    tools. *)

val adopt :
  t -> string -> size:int -> blocks:(int * Storage.Manager.block) list ->
  (unit, Fs_error.t) result
(** Create a file over blocks that already hold its data (namespace
    reconstruction after recovery): each [(slot, block)] lands at exactly
    [slot].  The parent directory must exist.
    @raise Invalid_argument if any block is unknown to the manager. *)

val check : t -> (unit, string) result
(** Consistency check (fsck): every block reachable from a file is alive
    in the storage manager exactly once, and the manager holds no blocks
    the namespace cannot reach — i.e. no leaks and no double use.  O(files
    + blocks); used by the test suite after random operation sequences. *)

(** {2 Pre-resolved routes}

    The replay fast path: a {!dirh} pins a directory table once, and the
    [_in] operations act on a leaf name under it — skipping path
    formatting, parsing, and per-component table lookups while charging
    exactly what the path-based walk charges (one metadata read per
    component, one for the leaf) and still resolving the leaf on every
    call, since files come and go mid-trace.  Each [_in] operation shares
    its implementation with its path twin: only the way to the leaf's
    directory differs.  A route dies with its file system: rebuild after
    anything that replaces [t] (cold restart). *)

type dirh
(** A resolved directory under which leaves are addressed by name. *)

val route : t -> string -> (dirh, Fs_error.t) result
(** Resolve a directory path to a route.  Side-effect-free setup: charges
    nothing to the device meters, so routes can be (re)built mid-run. *)

val create_in : t -> dirh -> string -> (Vfs.span, Fs_error.t) result
val exists_in : t -> dirh -> string -> bool

val write_in :
  t -> dirh -> string -> offset:int -> bytes:int -> (Vfs.span, Fs_error.t) result

val read_in :
  t -> dirh -> string -> offset:int -> bytes:int -> (Vfs.span, Fs_error.t) result

val truncate_in : t -> dirh -> string -> size:int -> (Vfs.span, Fs_error.t) result
val unlink_in : t -> dirh -> string -> (Vfs.span, Fs_error.t) result

include Vfs.S with type t := t
