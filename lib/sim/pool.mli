(** A Domain pool for deterministic parallel sweeps.

    The simulator's experiments are grids of mutually independent points —
    budget splits, policy × utilization products, per-device machine runs,
    multi-seed replications.  This module fans such grids out over OCaml 5
    Domains while keeping the results {e byte-identical regardless of job
    count}:

    - work items are indexed, and results are collected into the submission
      order, never the completion order;
    - the pool shares no state with the work function: each item must be
      self-contained (build its own engine, machine, and RNG).  Derive
      per-item randomness from an index-keyed {!Rng.split_ix}, never from a
      mutable generator shared across items;
    - [jobs = 1] degrades to a plain sequential [List.map] on the calling
      domain — no Domains are spawned and no behavior changes.

    An exception raised by a work item is re-raised by the submitting call
    once the batch has drained; when several items fail, the one with the
    smallest index wins, so failures are deterministic too. *)

val default_jobs : unit -> int
(** The ambient parallelism: the last {!set_default_jobs}, else the
    [SSMC_JOBS] environment variable, else
    [Domain.recommended_domain_count ()].  Always at least 1. *)

val set_default_jobs : int -> unit
(** Set the ambient parallelism (the [--jobs] flag lands here).  Replaces
    the ambient pool on its next use if the size changed.
    @raise Invalid_argument if the argument is [< 1]. *)

val run_map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [run_map f items] ≡ [List.map f items], computed on up to
    {!default_jobs} domains, the caller included.  Those domains form the
    ambient pool: created on first use, reused by later calls of the same
    size, and joined at exit, so one [--jobs]/[SSMC_JOBS] setting governs
    the whole run.  [~jobs] overrides the size for this call alone: a
    transient pool, joined before the call returns ([~jobs:1] maps
    directly, spawning nothing).
    @raise Invalid_argument if [jobs < 1]. *)
