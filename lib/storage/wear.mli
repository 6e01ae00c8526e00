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
    the device dies when its hottest sectors die.

    {!Manager} makes each policy's decisions from {!Seg_index}, and
    [Static]'s trigger from a running total and maximum of the segments'
    erase counts; the evenness is read from the flash on demand, through
    {!evenness}.  The reference scans over a segment array — the free
    pick, the relocation victim and the evenness — live in
    [test/scan_oracle.ml], which the differential tests hold the manager
    against. *)

type policy =
  | None_
  | Dynamic
  | Static of { spread_threshold : int }
      (** Force cold-data relocation when
          [max erase - mean erase > spread_threshold]. *)

val pp_policy : Format.formatter -> policy -> unit
val policy_name : policy -> string

(** {1 Wear metrics} *)

type evenness = {
  min_erases : int;
  max_erases : int;
  mean_erases : float;
  stddev_erases : float;
}

val evenness : int array -> evenness
(** The evenness of the given per-segment erase counts (all zero for
    none); the mean and standard deviation are derived from their exact
    integer total and sum of squares. *)

val spread_exceeds :
  max_erases:int -> total_erases:int -> segments:int -> spread_threshold:int -> bool
(** The [Static] relocation trigger: [max - total / segments > threshold].
    Max minus mean rather than max minus min, so one never-erased outlier
    segment cannot keep forced relocation running forever. *)
