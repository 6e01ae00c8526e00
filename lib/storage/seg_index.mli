(** Incrementally maintained segment-state indexes for {!Manager}.

    The storage manager's hot decisions — which free segment to open
    ({!Wear.pick_free} plus the least-busy-bank restriction), which closed
    segment to clean (greedy or cost-benefit, {!Wear.relocation_victim})
    — were originally full scans over the segment array on every call.
    This module keeps the same decisions available from structures
    updated at each segment state transition:

    - per bank, the {e free} segments bucketed by wear key (erase count,
      or a constant under first-fit allocation), so least-worn / most-worn
      / first-fit picks are a [min_binding] away;
    - per bank, the {e closed} segments bucketed by live-block count
      (greedy victim selection) and by erase count (static wear-leveling
      relocation);
    - per bank and per live count [0 .. nslots], an indexed binary
      min-heap of the closed segments keyed by (last-touched instant, id),
      for cost-benefit victim selection.  The index computes the
      cost-benefit score [age * (1-u)/(1+u)] itself, from the keys it
      holds.  At a fixed live count that score never rises as the
      last-touched instant grows, so each heap's root is its bucket's
      best candidate: a pick scores at most [banks * (nslots + 1)] roots,
      plus the nodes that tie a root's score, costs O(banks · nslots)
      however many segments there are, and allocates nothing.
      The heaps live in int arrays that double when full and never
      shrink, beside id-indexed position and key arrays sized at
      {!create}: adding, removing and re-bucketing a segment is
      O(log n) and allocates nothing once each heap has reached its
      largest size.

    Buckets are [Map]/[Set] based, so their entry points are O(log n) and
    min/max queries return the {e lowest segment id} within the extreme
    bucket — matching the first-in-id-order tie-breaking of the scans;
    the cost-benefit pick breaks equal scores the same way.  The scans,
    and the reference cost-benefit score, live in [test/scan_oracle.ml],
    the oracle the differential tests check the manager's decisions
    against after every operation.

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
  nsegments:int ->
  nslots:int ->
  wear_keyed:bool ->
  track_live:bool ->
  track_erase:bool ->
  track_age:bool ->
  t
(** [wear_keyed] selects the free-index key: the segment's erase count
    (wear-leveling allocation) or [0] (first-fit, so the min entry is
    simply the lowest free id).  The three [track_*] flags enable the
    closed-segment structures a given policy pair actually consults;
    disabled structures cost nothing to maintain.  Under [track_age], ids
    run over [0 .. nsegments - 1] and live counts over [0 .. nslots]. *)

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
    last-touched instant in nanoseconds (the cost-benefit age key).
    @raise Invalid_argument if the id is already indexed. *)

val remove_closed :
  t -> bank:int -> id:int -> live:int -> erase:int -> lt_ns:int -> unit
(** @raise Invalid_argument if the id is not indexed under these keys. *)

val closed_live_changed :
  t -> bank:int -> id:int -> old_live:int -> new_live:int -> lt_ns:int -> unit
(** A block in an indexed closed segment died (or, during recovery
    replay, revived): move the segment between live-count buckets. *)

val least_live_closed : t -> bank:int -> (int * int) option
(** [(live count, id)] of the greedy victim candidate in the bank. *)

val coldest_closed : t -> bank:int -> (int * int) option
(** [(erase count, id)] of the least-worn closed segment in the bank
    (static wear-leveling relocation candidate). *)

val max_score_closed : t -> first_bank:int -> end_bank:int -> now_ns:int -> int
(** The cost-benefit victim at instant [now_ns]: over the banks from
    [first_bank] up to, not including, [end_bank], the closed segment with
    the highest score, lowest id on equal scores; [-1] when there is none.
    The index scores a segment itself, from its keys: with [u] its live
    count over [nslots] and [age] the seconds from its last-touched
    instant to [now_ns] (0 if that instant is later), the score is
    [(age +. 1.0) *. (1.0 -. u) /. (1.0 +. u)], evaluated in that order.
    Only each (bank, live) heap's root and the nodes that tie a root's
    score are scored.  Allocates nothing. *)

val closed_by_age : t -> bank:int -> live:int -> (int * int) array
(** The cost-benefit heap of the bank's closed segments with [live] live
    blocks, as [(lt_ns, id)] pairs in array order: index 0 is the root and
    the children of [i] are [2i + 1] and [2i + 2].  Empty unless
    [track_age].  For tests. *)
