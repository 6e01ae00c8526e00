(** Flash memory device model.

    Flash provides direct-mapped, byte-granularity reads at near-DRAM speed,
    byte programming two orders of magnitude slower, erasure only in whole
    sectors, and a bounded number of erase cycles per sector, after which the
    sector goes bad.  The device is divided into banks that operate
    independently: while one bank is busy programming or erasing, reads to
    the same bank stall but other banks remain readable — the property the
    paper's Section 3.3 bank-partitioning argument relies on.

    The model enforces the write discipline in hardware terms: programming a
    sector can only consume bytes that have been erased and not yet
    programmed.

    Each program also writes the sector's header, the durable state a
    card carries from machine to machine: the logical block, a version
    and a position, as the storage manager hands them over, plus a live
    bit set by the program.  The device stores those bits and interprets
    none of them.  It only clears them: an erase wipes the header, and
    {!obsolete} clears the live bit in place, as NOR flash clears bits
    without an erase.  Validity of *data* (live vs dead, which copy is
    newest) is a software notion and belongs to the storage manager,
    which mounts a card by reading these headers back. *)

type t

type config = {
  spec : Specs.flash_spec;
  nbanks : int;
  sectors_per_bank : int;
  endurance_override : int option;
      (** Lower the per-sector erase-cycle budget for accelerated lifetime
          experiments; [None] uses the spec's endurance. *)
}

val config :
  ?spec:Specs.flash_spec ->
  ?nbanks:int ->
  ?endurance_override:int ->
  size_bytes:int ->
  unit ->
  config
(** Convenience constructor: [size_bytes] is rounded up to a whole number of
    sectors per bank.  [nbanks] defaults to 1.
    @raise Invalid_argument if sizes are non-positive. *)

val create : config -> t

(** {1 Geometry} *)

val spec : t -> Specs.flash_spec
val nbanks : t -> int
val nsectors : t -> int
val sector_bytes : t -> int
val size_bytes : t -> int
val bank_of_sector : t -> int -> int
val sectors_per_bank : t -> int
val endurance : t -> int

(** {1 Operations}

    Operations take the current simulated instant and return the instant
    the device completed the request (an unboxed [int]; nothing is
    allocated).  A request to a busy bank waits for the bank. *)

type error =
  | Bad_sector  (** The sector wore out and is unusable. *)
  | Overwrite_without_erase
      (** Programming more bytes than the sector has erased capacity left. *)

exception Error of error
(** Raised, with no device state changed, by a request the device
    refuses. *)

val pp_error : Format.formatter -> error -> unit

val read : t -> now:Sim.Time.t -> sector:int -> bytes:int -> Sim.Time.t
(** Read [bytes] from a sector.
    @raise Error [Bad_sector] on a worn-out sector, the only failure.
    @raise Invalid_argument if the sector is out of range or
    [bytes] exceeds the sector size. *)

val program :
  t ->
  now:Sim.Time.t ->
  sector:int ->
  bytes:int ->
  block:int ->
  version:int ->
  pos:int ->
  Sim.Time.t
(** Program [bytes] of erased space in the sector, and store its header:
    [block], [version] and [pos], live.  A header of the sector's earlier
    program since its last erase is overwritten.
    @raise Error [Bad_sector] or [Overwrite_without_erase]. *)

val erase : t -> now:Sim.Time.t -> sector:int -> Sim.Time.t
(** Erase the sector, recycling its programmed space, clearing its header
    and consuming one endurance cycle.  The erase that exhausts the
    endurance budget still succeeds; the sector is bad afterwards.
    @raise Error [Bad_sector] on a sector that is already bad. *)

val obsolete : t -> sector:int -> unit
(** Clear the header's live bit in place.  Takes no bank time and no
    energy: the bit-clear rides along with programs already charged.  A
    sector without a header is left as it is. *)

(** {2 Headers}

    What the last program since the sector's last erase stored; an erased
    sector reads block -1, version 0, not live, position -1. *)

val header_block : t -> sector:int -> int
val header_version : t -> sector:int -> int
val header_live : t -> sector:int -> bool
val header_pos : t -> sector:int -> int

val bank_busy_until : t -> bank:int -> Sim.Time.t

(** {1 Wear and health} *)

val erase_count : t -> sector:int -> int
val is_bad : t -> sector:int -> bool
(** A sector is bad exactly when its erase count reaches {!endurance}. *)

val any_bad : t -> sector:int -> count:int -> bool
(** Whether any of the [count >= 1] sectors from [sector] on is bad. *)

val programmed_bytes : t -> sector:int -> int
val bad_sectors : t -> int
val live_capacity_bytes : t -> int
(** Capacity excluding bad sectors. *)

(** {1 Traffic and energy} *)

val meter : t -> Power.Meter.t
val charge_idle : t -> Sim.Time.span -> unit
val reads : t -> int
val programs : t -> int
val erases : t -> int
val bytes_read : t -> int
val bytes_programmed : t -> int
val total_wait : t -> Sim.Time.span
(** Cumulative time requests spent queued behind busy banks. *)

val read_wait : t -> Sim.Time.span
(** The queued-behind-busy-bank time suffered by reads alone. *)

val reset_stats : t -> unit
(** Clears traffic counters and energy; wear state is preserved. *)

val factory_reset : t -> unit
(** Restore the device to the state {!create} built it in — pristine wear,
    no programmed bytes or headers, idle banks, zero counters and meters.  A
    factory-reset device is observationally identical to a freshly
    created one; {!Storage.Array.reinsert_card} relies on that to serve a
    reinserted card as a blank replacement, and [test_flash.ml] pins the
    identity. *)
