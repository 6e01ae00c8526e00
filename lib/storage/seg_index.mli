(** Incrementally maintained segment-state indexes for {!Manager}.

    The storage manager's hot decisions — which free segment to open
    ({!Wear.pick_free} plus the least-busy-bank restriction), which closed
    segment to clean ({!Cleaner.select}, {!Wear.relocation_victim}) — were
    originally full scans over the segment array on every call.  This
    module keeps the same decisions available as O(log n) lookups over
    structures updated at each segment state transition:

    - per bank, the {e free} segments bucketed by wear key (erase count,
      or a constant under first-fit allocation), so least-worn / most-worn
      / first-fit picks are a [min_binding] away;
    - per bank, the {e closed} segments bucketed by live-block count
      (greedy victim selection), by erase count (static wear-leveling
      relocation), and grouped by last-touched time with a live-count
      bucket per group (cost-benefit victim selection: within one age
      group relative scores are constant, so only each group's
      emptiest-lowest-id member can ever win).

    Buckets are [Map]/[Set] based, so every entry point is O(log n) and
    min/max queries return the {e lowest segment id} within the extreme
    bucket — matching the first-in-id-order tie-breaking of the scans.
    The scans live in [test/scan_oracle.ml], the oracle the differential
    tests check the manager's decisions against after every operation.

    This module is pure bookkeeping over [(bank, id, key)] integers; it
    never touches devices or segments.  {!Manager} owns the hook points
    and the policy logic that combines per-bank answers. *)

module Bucketed : sig
  (** A multiset of segment ids bucketed by an integer key, with O(log n)
      add/remove and O(log n) (key, lowest id) min/max queries. *)

  type t

  val create : unit -> t
  val size : t -> int
  val mem : t -> key:int -> int -> bool

  val add : t -> key:int -> int -> unit
  (** @raise Invalid_argument if the id is already present under [key]. *)

  val remove : t -> key:int -> int -> unit
  (** @raise Invalid_argument if the id is not present under [key]. *)

  val min_entry : t -> (int * int) option
  (** [(lowest key, lowest id within that bucket)]. *)

  val max_entry : t -> (int * int) option
  (** [(highest key, lowest id within that bucket)]. *)
end

type t

val create :
  nbanks:int ->
  wear_keyed:bool ->
  track_live:bool ->
  track_erase:bool ->
  track_age:bool ->
  t
(** [wear_keyed] selects the free-index key: the segment's erase count
    (wear-leveling allocation) or [0] (first-fit, so the min entry is
    simply the lowest free id).  The three [track_*] flags enable the
    closed-segment structures a given policy pair actually consults;
    disabled structures cost nothing to maintain. *)

val clear : t -> unit
(** Empty every structure (before a full reindex). *)

val wear_keyed : t -> bool

(** {1 Free side} *)

val free_count : t -> int
(** Total free segments across banks, O(1). *)

val bank_free_count : t -> bank:int -> int

val add_free : t -> bank:int -> key:int -> id:int -> unit
val remove_free : t -> bank:int -> key:int -> id:int -> unit

val least_worn_free : t -> bank:int -> (int * int) option
(** [(key, id)] of the least-worn free segment in the bank, lowest id on
    ties.  Under [wear_keyed = false] every key is [0], so this is
    first-fit: the lowest free id. *)

val most_worn_free : t -> bank:int -> (int * int) option

(** {1 Closed (victim) side} *)

val add_closed : t -> bank:int -> id:int -> live:int -> erase:int -> lt_ns:int -> unit
(** Index a segment that just transitioned to Closed.  [lt_ns] is its
    last-touched instant in nanoseconds (the cost-benefit age key). *)

val remove_closed :
  t -> bank:int -> id:int -> live:int -> erase:int -> lt_ns:int -> unit

val closed_live_changed :
  t -> bank:int -> id:int -> old_live:int -> new_live:int -> lt_ns:int -> unit
(** A block in an indexed closed segment died (or, during recovery
    replay, revived): move the segment between live-count buckets. *)

val least_live_closed : t -> bank:int -> (int * int) option
(** [(live count, id)] of the greedy victim candidate in the bank. *)

val coldest_closed : t -> bank:int -> (int * int) option
(** [(erase count, id)] of the least-worn closed segment in the bank
    (static wear-leveling relocation candidate). *)

val iter_age_reps : t -> bank:int -> f:(lt_ns:int -> id:int -> bool) -> unit
(** Visit one cost-benefit candidate per distinct last-touched instant,
    oldest first: the emptiest (then lowest-id) member of each age group,
    the only member that can maximize [age * (1-u)/(1+u)] within the
    group.  [f] returns [false] to stop early (callers cut off once the
    group-age upper bound can no longer beat the best score so far). *)
