(** Crash and power-failure semantics.

    "The contents of DRAM will not survive a battery failure.  Such
    failures will be relatively common in mobile computers."  The paper's
    answer: battery-backed DRAM rides out ordinary operation and battery
    swaps (the lithium backup), while flash is the ultimate repository —
    so the only data at risk at any instant is what sits in the DRAM write
    buffer, and only if every battery is gone.

    This module evaluates what a sudden power event would cost a machine
    in a given state, and models the paper's holdup arithmetic ("many
    days" on primary, "many hours" on backup). *)

type outcome = {
  dirty_blocks : int;  (** In the write buffer at the instant of failure. *)
  lost_blocks : int;  (** Actually lost (0 while any battery holds). *)
  survived_by : [ `Primary_battery | `Backup_battery | `Nothing ];
  flash_blocks_intact : int;  (** Live flash data is never at risk. *)
}

val survivor :
  battery:Device.Battery.t -> dram_battery_backed:bool ->
  [ `Primary_battery | `Backup_battery | `Nothing ]
(** Which battery keeps DRAM alive through a loss of external power:
    none unless DRAM is battery-backed and a battery still holds; the
    backup while the primary is empty, else the primary.  The one rule
    {!power_failure} and [Machine.inject_fault] both apply. *)

val power_failure :
  manager:Storage.Manager.t -> battery:Device.Battery.t -> dram_battery_backed:bool ->
  outcome
(** What a power failure right now would do. *)

type holdup = {
  primary_days : float;
      (** Days the primary battery preserves an otherwise idle machine's
          DRAM. *)
  backup_hours : float;
      (** Hours the lithium backup alone does.  Deliberately a different
          unit from [primary_days] — the paper quotes "many days" versus
          "many hours" — and a labelled field so the pair can't be
          destructured in the wrong order. *)
}

val dram_holdup :
  dram:Device.Dram.t -> battery:Device.Battery.t -> holdup
(** The self-refresh-only draw arithmetic behind Section 3.1's retention
    claim. *)

val pp_holdup : Format.formatter -> holdup -> unit

val pp_outcome : Format.formatter -> outcome -> unit
