(** A whole simulated mobile computer.

    Assembles the devices, the physical storage manager, a file system, and
    a battery according to a {!Config.t}, then replays file-system traces
    against it while accounting time, energy, and battery drain.  This is
    the object every end-to-end experiment manipulates. *)

type t

val create : Config.t -> t
(** A fresh machine: new devices, storage, file system and battery.  The
    one constructor; fleet devices, sweep points and replicated runs are
    all built here. *)

val config : t -> Config.t
val engine : t -> Sim.Engine.t
val dram : t -> Device.Dram.t
val battery : t -> Device.Battery.t
val rng : t -> Sim.Rng.t

val store : t -> Storage.Store.t option
(** The block store — a single manager or a striped multi-card array
    ([None] on a conventional machine).  Replaced by a cold restart. *)

val manager : t -> Storage.Manager.t option
(** The storage manager ([None] on a conventional machine {e or} a
    multi-card array; use {!store} to handle both). *)

val flash : t -> Device.Flash.t option
(** The flash device of a single-card machine ([None] on conventional or
    multi-card machines; use {!flashes} for the per-card devices). *)

val flashes : t -> Device.Flash.t array
(** Every flash card, in card order (empty on a conventional machine). *)

val disk : t -> Device.Disk.t option

val memfs : t -> Fs.Memfs.t option
val ffs : t -> Fs.Ffs.t option

(** {1 Running workloads} *)

val preload : t -> (int * int) list -> unit
(** Install the workload's initial files ((id, size) pairs, under
    ["/data"]) through the cold path, settle the devices, and zero every
    traffic counter and meter: the measured run starts clean. *)

val apply : t -> Trace.Record.t -> Sim.Time.span
(** Apply one trace record through the file system at the engine's current
    instant.  Writes to missing files create them first (traces elide the
    create when it is implicit).  Failed operations (e.g. reads of deleted
    files) are counted and charged nothing. *)

(** {1 Fault injection}

    A {!Sim.Fault.kind} interpreted against the machine's battery and
    storage state at the instant it fires.  While any battery holds,
    battery-backed DRAM rides the event out and nothing is lost — the
    paper's §3.3 safety argument.  When no battery holds, the machine
    cold-restarts: the write buffer's dirty blocks are dropped, the
    storage manager remounts from the surviving flash headers, and the
    namespace is rebuilt over whatever blocks flash still has.  Only
    solid-state machines accept faults (a conventional machine raises
    [Invalid_argument]).

    [Card_eject]/[Card_reinsert] are storage faults rather than power
    faults: they require a parity-striped array (anything else raises
    [Invalid_argument]) and never restart the machine — the array runs
    degraded until the reinserted card's background rebuild completes
    (see {!Storage.Array.eject_card}). *)

type fault_outcome = {
  at : Sim.Time.t;
  kind : Sim.Fault.kind;
  survived_by : [ `Primary_battery | `Backup_battery | `Parity | `Nothing ];
  dirty_at_fault : int;  (** Write-buffer occupancy when the fault hit. *)
  blocks_lost : int;  (** 0 unless [survived_by = `Nothing]. *)
  cold_restart : bool;
  remount : Storage.Manager.remount_report option;  (** Cold restarts only. *)
  remount_span : Sim.Time.span;  (** Header-scan time of the remount. *)
  files_damaged : int;  (** Files that lost at least one block. *)
}

val inject_fault : t -> Sim.Fault.kind -> fault_outcome
(** Fire one fault right now.  On a cold restart the machine's manager and
    file system are replaced; previously obtained handles to them are dead.
    Power/battery state afterwards: a fresh primary after a swap, a
    recharged battery after a restart (the machine is plugged in to come
    back up).
    @raise Invalid_argument on a conventional (disk) machine. *)

val pp_fault_outcome : Format.formatter -> fault_outcome -> unit

type result = {
  ops_applied : int;
  op_errors : int;
  elapsed : Sim.Time.span;  (** Wall-clock of the whole run. *)
  busy : Sim.Time.span;  (** Sum of foreground operation latencies. *)
  read_latency : Sim.Stat.Summary.t;  (** Per-op foreground latency, us. *)
  write_latency : Sim.Stat.Summary.t;
  meta_latency : Sim.Stat.Summary.t;  (** create/delete/truncate, us. *)
  read_hist_us : Sim.Stat.Histogram.t;  (** For percentiles. *)
  write_hist_us : Sim.Stat.Histogram.t;
  energy_j : float;
  battery_fraction_left : float;
  manager_stats : Storage.Manager.stats option;
  lifetime_years : float option;  (** Flash-wear extrapolation. *)
  fault_log : fault_outcome list;  (** Injected faults, in firing order. *)
}

val run_seq :
  ?drain:Sim.Time.span ->
  ?faults:Sim.Fault.schedule ->
  t ->
  Trace.Record.t Seq.t ->
  result
(** Replay a trace (timestamps are shifted so the trace starts "now"),
    then keep the engine running [drain] longer (default 120 s) so pending
    flushes and cleaning settle, then do the final power accounting.

    Each record applies at its instant, after every engine event due by
    then — or at once, if the previous operation ran past it: the client
    is a closed loop.  Each [faults] event fires at [start + after]
    through {!inject_fault} while the replay runs; the trace resumes on
    the (possibly remounted) machine and the outcomes land in
    [fault_log].  Events scheduled past the end of the drain window never
    fire.

    The stream is lowered a chunk at a time
    ({!Trace.Replay.Compiled.chunks}) and each chunk is released once
    replayed, so a streamed ({!Trace.Synth.generate_seq}) or file-backed
    ({!Trace.Format_io.read_seq}) trace replays in memory bounded by the
    chunk, not the trace length (file-system state aside).  Memfs records
    go through a route pinned to ["/data"] ({!Fs.Memfs.route}); anything
    it cannot serve (a disk-backed machine, no ["/data"]) falls back to
    {!apply} per record.  A mid-run cold restart invalidates and rebuilds
    the route. *)

val run :
  ?drain:Sim.Time.span ->
  ?faults:Sim.Fault.schedule ->
  t ->
  Trace.Record.t list ->
  result
(** [run_seq] over a materialized trace. *)

val run_compiled :
  ?drain:Sim.Time.span ->
  ?faults:Sim.Fault.schedule ->
  t ->
  Trace.Replay.Compiled.t ->
  result
(** {!run_seq} over a trace lowered up front: the same loop, given the
    whole trace as one chunk. *)

val pp_result : Format.formatter -> result -> unit

(** {1 Multi-seed replication}

    A single seed gives one sample of every stochastic quantity; paper-grade
    claims want the spread.  [run_replicated] runs one complete machine per
    seed on the Domain pool and reduces the headline metrics to mean ± 95 %
    confidence half-widths.  Experiments opt in by wrapping their per-seed
    setup in the [run] callback. *)

type ci = {
  mean : float;
  half_width : float;  (** 95 % confidence half-width (normal approx.). *)
  n : int;
}

type replicated = {
  runs : (int * result) list;  (** Per-seed results, in [seeds] order. *)
  read_us : ci;  (** Across seeds: mean per-op read latency. *)
  write_us : ci;
  energy_j : ci;
}

val run_replicated :
  ?jobs:int -> seeds:int list -> (seed:int -> result) -> replicated
(** [run_replicated ~seeds run] evaluates [run ~seed] for each seed on the
    ambient Domain pool ([~jobs] overrides, [1] is sequential).  [run] must
    build a fresh machine (and trace) from its seed and share nothing:
    results are collected in [seeds] order and are byte-identical at any
    job count.
    @raise Invalid_argument if [seeds] is empty. *)

val pp_ci : Format.formatter -> ci -> unit
val pp_replicated : Format.formatter -> replicated -> unit

(** {1 Power accounting}

    Accounting runs automatically every simulated minute during {!run};
    call {!account} manually around hand-driven operations. *)

val account : t -> unit
(** Charge background power for the interval since the last accounting and
    drain the battery by all energy consumed since then. *)
