(** Wear-leveling policies.

    Flash sectors endure a bounded number of erase cycles, so the storage
    manager must "evenly balance the write load throughout flash memory"
    (Section 3.3).  Three policies, in increasing strength:

    - {e None}: take any free segment (first fit).  Hot segments cycle
      through erases while segments holding cold data never wear at all.
    - {e Dynamic}: open the free segment with the lowest erase count.
      Levels wear among segments that circulate, but cold data still pins
      fresh segments out of circulation.
    - {e Static}: dynamic allocation, plus forced relocation — when the
      spread between the most- and least-worn segments exceeds a threshold,
      the manager cleans the least-worn {e cold} segment even though it is
      fully live, putting its under-used sectors back into rotation.

    The evenness of the resulting wear directly multiplies device lifetime:
    the device dies when its hottest sectors die. *)

type policy =
  | None_
  | Dynamic
  | Static of { spread_threshold : int }
      (** Force cold-data relocation when
          [max erase - mean erase > spread_threshold]. *)

val pp_policy : Format.formatter -> policy -> unit
val policy_name : policy -> string

val pick_free :
  ?for_cold:bool ->
  policy -> erase_count:(Segment.t -> int) -> Segment.t array -> Segment.t option
(** Choose which Free segment to open next.  With [for_cold] (data the
    cleaner judged long-lived), [Static] picks the {e most}-worn free
    segment — parking cold data on tired sectors and releasing fresh ones
    into circulation, the essence of static wear leveling.  Hot
    (default) allocation picks the least-worn segment under [Dynamic] and
    [Static], and first-fit under [None_]. *)

val relocation_victim :
  policy ->
  erase_count:(Segment.t -> int) ->
  eligible:(Segment.t -> bool) ->
  Segment.t array ->
  Segment.t option
(** Under [Static], the Closed segment that should be forcibly relocated —
    the least-worn one — when the wear spread exceeds the threshold.
    [None] for other policies or when the spread is within bounds.  The
    spread is computed over {e all} segments' erase counts. *)

(** {1 Wear metrics} *)

type evenness = {
  min_erases : int;
  max_erases : int;
  mean_erases : float;
  stddev_erases : float;
}

type acc
(** Running wear statistics (count, total, sum of squares, per-level
    multiplicities) in exact integer form.  Integer sums are
    order-independent, so an accumulator maintained incrementally — one
    {!acc_bump} per segment cleaning — holds byte-for-byte the same
    values as one built by {!acc_of_scan} over the array, and the
    evenness floats derived from either are identical. *)

val acc_create : unit -> acc
val acc_clear : acc -> unit

val acc_add : acc -> int -> unit
(** Register one more segment currently at the given erase count. *)

val acc_bump : acc -> old_count:int -> new_count:int -> unit
(** A segment moved from [old_count] to [new_count] erases. *)

val acc_of_scan : erase_count:(Segment.t -> int) -> Segment.t array -> acc
(** The reference: fold every segment's current erase count. *)

val evenness_of_acc : acc -> evenness
(** The single derivation of the evenness floats; both the scan and the
    incremental paths go through it. *)

val evenness : erase_count:(Segment.t -> int) -> Segment.t array -> evenness
(** [evenness_of_acc] of [acc_of_scan]. *)

val spread_exceeds : evenness -> spread_threshold:int -> bool
(** The [Static] relocation trigger: [max - mean > threshold].  Max minus
    mean rather than max minus min, so one never-erased outlier segment
    cannot keep forced relocation running forever. *)
