(** Incrementally maintained segment-state indexes for {!Manager}.

    The storage manager's hot decisions — which free segment to open,
    which closed segment to clean (greedy or cost-benefit) and which to
    relocate under static wear leveling — were originally full scans over
    the segment array on every call.  This module keeps the same
    decisions available from one structure updated at each segment state
    transition: families of indexed binary min-heaps over segment ids,
    each ordered by (key, id), so a heap's root is its least key, lowest
    id on ties.  Four families:

    - free segments, a heap per bank keyed by the wear key, whose root is
      the least-worn free segment (or, with every key 0, the lowest free
      id: first fit);
    - free segments, a heap per bank keyed by the negated wear key, whose
      root is the most-worn free segment, lowest id on ties;
    - closed segments, a heap per bank keyed by erase count, whose root
      is the static wear-leveling relocation candidate;
    - closed segments, a heap per bank and live count [0 .. nslots] keyed
      by an age key.  With the last-touched instant as the key, the index
      computes the cost-benefit score [age * (1-u)/(1+u)] itself; at a
      fixed live count that score never rises as the instant grows, so
      each heap's root is its bucket's best candidate, and a pick scores
      at most [banks * (nslots + 1)] roots plus the nodes that tie a
      root's score.  With every key 0, each heap's root is its lowest id,
      so the first non-empty heap from live count 0 up holds the greedy
      victim.

    Every heap is kept whatever the policies; {!Manager}, the one module
    that knows them, chooses the keys.  The heaps live in int arrays that
    double when full and never shrink, beside id-indexed position and key
    arrays sized at {!create}: an add, a remove or a live-count change is
    O(log n), a pick O(banks) or O(banks · nslots), and none allocates
    once each heap has reached its largest size.

    Ties go to the lowest segment id, within a heap and across banks —
    matching the first-in-id-order tie-breaking of the scans.  The scans,
    and the reference cost-benefit score, live in [test/scan_oracle.ml],
    the oracle the differential tests check the manager's decisions
    against after every operation.

    This module is pure bookkeeping over [(bank, id, key)] integers; it
    never touches devices or segments. *)

type t

val create : nbanks:int -> nsegments:int -> nslots:int -> t
(** Ids run over [0 .. nsegments - 1], live counts over [0 .. nslots]. *)

val clear : t -> unit
(** Empty every heap (before a full reindex). *)

(** {1 Free side} *)

val free_count : t -> int
(** Total free segments across banks, O(1). *)

val add_free : t -> bank:int -> key:int -> id:int -> unit
(** [key] is the wear key: the erase count, or [0] for first fit.
    @raise Invalid_argument if the id is already free. *)

val remove_free : t -> bank:int -> key:int -> id:int -> unit
(** @raise Invalid_argument if the id is not free in [bank] under [key]. *)

val least_worn_free : t -> bank:int -> int
(** The free segment with the least key in the bank, lowest id on ties;
    [-1] when the bank has none. *)

val most_worn_free : t -> bank:int -> int
(** The free segment with the greatest key in the bank, lowest id on
    ties; [-1] when the bank has none. *)

(** {1 Closed (victim) side} *)

val mem_closed : t -> id:int -> bool

val add_closed : t -> bank:int -> id:int -> live:int -> erase:int -> age:int -> unit
(** Index a segment that just transitioned to Closed.  [age] is its age
    key: its last-touched instant in nanoseconds for a cost-benefit
    pick, or [0] for a greedy one.
    @raise Invalid_argument if the id is already indexed or [live] is out
    of range. *)

val remove_closed :
  t -> bank:int -> id:int -> live:int -> erase:int -> age:int -> unit
(** @raise Invalid_argument if the id is not indexed under these keys. *)

val closed_live_changed :
  t -> bank:int -> id:int -> old_live:int -> new_live:int -> age:int -> unit
(** A block in an indexed closed segment died (or, during recovery
    replay, revived): move the segment between live-count heaps. *)

val least_live_closed : t -> first_bank:int -> end_bank:int -> int
(** Over the banks from [first_bank] up to, not including, [end_bank]:
    the root of the first non-empty age heap, least live count first,
    then lowest bank; [-1] when there is none.  With every age key [0]
    that is the greedy victim: the fewest live blocks, lowest id on
    ties. *)

val coldest_closed : t -> first_bank:int -> end_bank:int -> int
(** Over the same banks: the closed segment with the fewest erases,
    lowest id on ties (the static wear-leveling relocation candidate);
    [-1] when there is none. *)

val max_score_closed : t -> first_bank:int -> end_bank:int -> now_ns:int -> int
(** The cost-benefit victim at instant [now_ns], with age keys the
    last-touched instants: over the same banks, the closed segment with
    the highest score, lowest id on equal scores; [-1] when there is
    none.  With [u] its live count over [nslots] and [age] the seconds
    from its last-touched instant to [now_ns] (0 if that instant is
    later), the score is [(age +. 1.0) *. (1.0 -. u) /. (1.0 +. u)],
    evaluated in that order.  Only each heap's root and the nodes that
    tie a root's score are scored. *)

(** {1 For tests} *)

type family =
  | Least_worn  (** Free segments by wear key. *)
  | Most_worn  (** Free segments by negated wear key. *)
  | By_erase  (** Closed segments by erase count. *)
  | By_age of int  (** Closed segments with that many live blocks, by age key. *)

val heap : t -> family -> bank:int -> (int * int) array
(** One heap of the bank as [(key, id)] pairs in array order: index 0 is
    the root and the children of [i] are [2i + 1] and [2i + 2]. *)
