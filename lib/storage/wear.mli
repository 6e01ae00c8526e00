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

    {!Manager} makes each policy's decisions from {!Seg_index} and keeps
    the evenness in an {!acc}.  The reference scans over a segment array
    — the free pick, the relocation victim and the evenness — live in
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

type acc
(** Running wear statistics (count, total, sum of squares, per-level
    multiplicities) in exact integer form.  Integer sums are
    order-independent, so an accumulator maintained incrementally — one
    {!acc_bump} per segment cleaning — holds byte-for-byte the same
    values as one built by an {!acc_add} per segment, and the evenness
    floats derived from either are identical. *)

val acc_create : unit -> acc
val acc_clear : acc -> unit

val acc_add : acc -> int -> unit
(** Register one more segment currently at the given erase count. *)

val acc_bump : acc -> old_count:int -> new_count:int -> unit
(** A segment moved from [old_count] to [new_count] erases. *)

val evenness_of_acc : acc -> evenness
(** The single derivation of the evenness floats; both the scan and the
    incremental paths go through it. *)

val spread_exceeds : evenness -> spread_threshold:int -> bool
(** The [Static] relocation trigger: [max - mean > threshold].  Max minus
    mean rather than max minus min, so one never-erased outlier segment
    cannot keep forced relocation running forever. *)
