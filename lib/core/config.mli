(** Whole-machine configurations.

    A configuration describes a mobile computer: how much battery-backed
    DRAM, what stable storage (flash for the paper's solid-state
    organization, a small disk for the conventional baseline), the storage
    manager's policies, and the battery.  Experiments mostly start from
    {!solid_state} or {!conventional} and override fields. *)

type storage =
  | Solid_state of {
      flash_bytes : int;  (** Per card: total flash is [cards * flash_bytes]. *)
      nbanks : int;  (** Per card. *)
      flash_spec : Device.Specs.flash_spec;
      endurance_override : int option;
      manager : Storage.Manager.config;
      cards : int;
          (** PCMCIA flash cards behind a striped {!Storage.Array}.
              [cards = 1] mounts the manager directly — byte-identical to
              the pre-array machine (held by [test_store_array.ml] and the
              [e13_cards1_equiv] row of [bench/main.exe --check]). *)
      striping : Storage.Striping.policy;  (** Ignored when [cards = 1]. *)
      front_cache_blocks : int;
          (** Shared front cache over the array; 0 = off.  Ignored when
              [cards = 1]. *)
    }
  | Conventional of {
      disk_spec : Device.Specs.disk_spec;
      spindown_timeout : Sim.Time.span option;
      ffs : Fs.Ffs.config;
    }

type t = {
  name : string;
  dram_bytes : int;
  battery_backed_dram : bool;
  storage : storage;
  battery_wh : float;  (** Primary battery capacity. *)
  backup_wh : float;  (** Lithium backup for DRAM retention. *)
  seed : int;
}

val solid_state :
  ?name:string ->
  ?dram_mb:int ->
  ?flash_mb:int ->
  ?nbanks:int ->
  ?manager:Storage.Manager.config ->
  ?flash_spec:Device.Specs.flash_spec ->
  ?endurance_override:int ->
  ?cards:int ->
  ?striping:Storage.Striping.policy ->
  ?front_cache_blocks:int ->
  ?battery_wh:float ->
  ?backup_wh:float ->
  ?seed:int ->
  unit ->
  t
(** The paper's machine: defaults 4 MB DRAM, 20 MB Intel-style flash in
    4 banks, default manager policies, 10 Wh primary + 0.5 Wh backup.
    [cards] (default 1) scales out to a striped multi-card array —
    [flash_mb] is then per card — striped by [striping] (default
    round-robin, 4-block strips) behind an optional shared front cache. *)

val conventional :
  ?name:string ->
  ?dram_mb:int ->
  ?disk_spec:Device.Specs.disk_spec ->
  ?spindown_timeout:Sim.Time.span ->
  ?ffs:Fs.Ffs.config ->
  ?battery_wh:float ->
  ?seed:int ->
  unit ->
  t
(** The baseline: same DRAM, an HP KittyHawk-class disk with a 10 s
    spin-down timeout, a classic FFS with a 256 KB buffer cache. *)

val dollars : t -> float
(** Approximate 1993 cost of the machine's storage, from the Section 2
    price points — used by the sizing experiment. *)
