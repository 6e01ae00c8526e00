(** Log segments over flash sectors.

    The storage manager organizes flash as a log of fixed-size segments,
    each a run of contiguous erase sectors within one bank (the
    log-structured organization of Rosenblum & Ousterhout that the paper's
    Section 3.3 points to).  A segment is the unit of cleaning and of bulk
    erasure.  One block (the write unit) occupies one sector here, so a
    segment of [n] sectors holds [n] blocks.

    This module is pure bookkeeping: which slots hold which live blocks,
    how much of the segment is dead.  Device timing lives in
    {!Device.Flash}; policy lives in {!Cleaner} and {!Wear}. *)

type state =
  | Free  (** Erased, available to be opened. *)
  | Open  (** The current head of a log; accepts appends. *)
  | Closed  (** Full; candidate for cleaning. *)

type t

val create : id:int -> first_sector:int -> nslots:int -> t
(** A fresh (Free) segment over sectors
    [\[first_sector, first_sector + nslots)].
    @raise Invalid_argument if [nslots <= 0]. *)

val id : t -> int
val state : t -> state
val nslots : t -> int
val first_sector : t -> int
val sector_of_slot : t -> int -> int

val open_ : t -> unit
(** Transition Free -> Open.  @raise Invalid_argument otherwise. *)

val append : t -> block:int -> int
(** Claim the next slot for a (live) block; returns the slot.  A full
    segment transitions to Closed automatically, so a segment that is
    Open always has a slot.  @raise Invalid_argument unless Open. *)

val kill : t -> slot:int -> unit
(** Mark the block in [slot] dead (superseded or freed).
    @raise Invalid_argument if the slot is empty or out of range. *)

val block_at : t -> int -> int
(** The live block in a slot, or -1 if the slot holds none (never used,
    or killed).  @raise Invalid_argument if the slot is out of range. *)

val live_count : t -> int
val used_slots : t -> int
(** Slots consumed so far (live + dead). *)

val utilization : t -> float
(** Live blocks over total slots, in [\[0, 1\]]. *)

val close : t -> unit
(** Force Open -> Closed (e.g. when switching banks).
    @raise Invalid_argument unless Open. *)

val reset_to_free : t -> unit
(** After erasure: mark the segment empty and Free.
    @raise Invalid_argument if live blocks remain. *)

val touch : t -> at:Sim.Time.t -> unit
(** Record modification time (used by cost-benefit cleaning as "age"). *)

val last_touched : t -> Sim.Time.t
