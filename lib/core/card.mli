(** Removable flash memory cards.

    The machines the paper points at shipped storage and even software on
    removable flash cards — "the Hewlett-Packard OmniBook is available
    with a 10-megabyte flash memory card as its only source of secondary
    storage", with "bundled software shipped in removable memory cards and
    executed in place".  A card couples a flash device with its own
    storage manager and memory-resident file system; the host inserts it,
    uses it (including mapping program text straight off it), and ejects
    it.

    Eject semantics are where removability bites: the card's write buffer
    lives in the *host's* DRAM.  An orderly eject flushes it first; a
    surprise eject (the user pulls the card) loses the buffered blocks.
    Either way the card takes its state with it: the sector headers on
    its flash and the namespace checkpoint, and the next insertion mounts
    it from those alone ({!Storage.Manager.mount}). *)

type t

val create :
  ?name:string ->
  ?nbanks:int ->
  ?spec:Device.Specs.flash_spec ->
  ?manager:Storage.Manager.config ->
  size_mb:int ->
  engine:Sim.Engine.t ->
  host_dram:Device.Dram.t ->
  unit ->
  t
(** A fresh (formatted) card, inserted into the host that owns [engine]
    and [host_dram].  [spec] (default {!Device.Specs.intel_flash}) sets
    the card's device timings, the orderly eject's checkpoint writes
    included; [manager] is the configuration every insertion mounts the
    card with. *)

val name : t -> string
val flash : t -> Device.Flash.t
val size_bytes : t -> int

val fs : t -> Fs.Memfs.t
(** The card's file system.  @raise Invalid_argument if ejected. *)

val manager : t -> Storage.Manager.t
(** @raise Invalid_argument if ejected. *)

val inserted : t -> bool

type eject_report = {
  flushed_blocks : int;  (** Pushed to the card by an orderly eject. *)
  lost_blocks : int;  (** Dropped with the host buffer by a surprise eject. *)
  eject_latency : Sim.Time.span;  (** Time spent flushing before release. *)
}

val eject : ?surprise:bool -> t -> eject_report
(** Detach the card.  Orderly (default): flush the host-side buffer to the
    card first and write the namespace checkpoint, at the card's own
    timings; nothing is lost.  [surprise]: the buffer's contents are
    gone.  After ejecting, {!fs} and {!manager} refuse to serve.
    @raise Invalid_argument if already ejected. *)

type insert_report = {
  scan_time : Sim.Time.span;  (** The remount scan of the card's flash. *)
  blocks_recovered : int;
}

val insert : t -> insert_report
(** Re-attach an ejected card: mounts its flash from the sector headers
    alone ({!Storage.Manager.mount} with the configuration the card was
    created with; nothing of the manager it was ejected from), and
    rebuilds the namespace from the checkpoint the card carries (written
    at the last orderly eject).  Files whose blocks did not survive —
    dirty at a surprise eject — are dropped; surviving blocks the
    checkpoint does not reach are scavenged into ["/recovered-<n>"] files
    so nothing readable is silently discarded.
    @raise Invalid_argument if already inserted. *)

val pp_eject_report : Format.formatter -> eject_report -> unit
val pp_insert_report : Format.formatter -> insert_report -> unit
