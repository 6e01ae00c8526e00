(** Energy accounting.

    Each device owns a meter.  Operations charge *active* energy as they
    complete; *background* draw (DRAM refresh, disk spindle, flash standby) is
    charged by the machine model once it knows the elapsed interval.  All
    energy is in joules, power in watts. *)

module Meter : sig
  type t

  val create : label:string -> t
  val label : t -> string

  val charge : t -> joules:float -> unit
  (** Add active energy.  @raise Invalid_argument on a negative charge. *)

  val charge_power : t -> watts:float -> Sim.Time.span -> unit
  (** Add [watts] drawn over a duration. *)

  val active_joules : t -> float
  val background_joules : t -> float

  val charge_background : t -> watts:float -> Sim.Time.span -> unit
  (** Background draw, tracked separately from active energy. *)

  val total_joules : t -> float
  val reset : t -> unit
end

val watts_of_mw : float -> float
