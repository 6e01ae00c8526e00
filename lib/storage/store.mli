(** The block store a machine mounts: one manager or a striped array.

    The fs layer and the machine consume this one surface; [Single]
    forwards every operation verbatim to the manager — zero wrapping
    state, zero extra accounting — which is what makes a [cards = 1]
    machine byte-identical to the pre-array path. *)

type t = Single of Manager.t | Striped of Array.t

val block_bytes : t -> int
val capacity_blocks : t -> int
val alloc : t -> Manager.block
val write_block : t -> Manager.block -> Sim.Time.span
val write_block_at : t -> at:Sim.Time.t -> Manager.block -> Sim.Time.t
val read_block : ?bytes:int -> t -> Manager.block -> Sim.Time.span
val read_block_at : bytes:int -> t -> at:Sim.Time.t -> Manager.block -> Sim.Time.t
(** [bytes] is required, as on {!Manager.read_block_at}. *)

val free_block : t -> Manager.block -> unit
val load_cold : t -> Manager.block -> unit
val flush_all : t -> Sim.Time.span
val stats : t -> Manager.stats
val dram : t -> Device.Dram.t
val engine : t -> Sim.Engine.t

val segment_of_block : t -> Manager.block -> int option
(** Card-local segment id under [Striped] — unambiguous per block since a
    block lives on exactly one card. *)

val block_is_dirty : t -> Manager.block -> bool
val block_exists : t -> Manager.block -> bool
val reset_traffic : t -> unit

val managers : t -> Manager.t array
(** The underlying manager(s) — one per card — for per-card lifetime,
    wear, and stats reporting.  Introspection only. *)

val health : t -> [ `Healthy | `Degraded of int | `Rebuilding of int ]
(** A [Single] store is always [`Healthy]; see {!Array.health}. *)

val parity_stats : t -> Array.parity_stats option
(** [Some] only for a parity-striped array. *)

val diff_stats : t -> Diff_log.stats option
(** Summed page-differential logging counters; [None] with the policy
    off everywhere. *)

val crash_and_remount : t -> t * Sim.Time.span * Manager.remount_report
(** Cold restart: remount every card (see {!Array.crash_and_remount});
    summed report, slowest-card span. *)
