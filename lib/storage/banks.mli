(** Flash bank partitioning policy.

    Section 3.3: "it may prove necessary to partition flash memory into two
    or more banks.  One bank would hold read-mostly data ... while others
    would be used for data that is more frequently written."  A bank busy
    with a slow program or erase cannot service reads, so segregating hot
    writes into dedicated banks keeps the read-mostly banks' latency flat.

    Under [Partitioned], fresh writes go to the first [write_banks] banks;
    cleaning output and cold preloads — data that has survived long enough
    to be presumed cold — go to the remaining banks. *)

type policy =
  | Unified  (** Any purpose may use any bank. *)
  | Partitioned of { write_banks : int }

type purpose =
  | Fresh_write  (** Flushes of newly written data. *)
  | Clean_out  (** Live data relocated by the cleaner (presumed cold). *)
  | Cold_load  (** Bulk preload of long-lived data (installed programs). *)

val pp_policy : Format.formatter -> policy -> unit
val policy_name : policy -> string

val validate : policy -> nbanks:int -> (unit, string) result
(** Partitioning must leave at least one bank on each side. *)

val allowed : policy -> nbanks:int -> purpose -> bank:int -> bool
(** May a segment in [bank] be opened for [purpose]?  Exactly when
    [first_bank <= bank < end_bank]. *)

val first_bank : policy -> purpose -> int
(** The lowest bank [purpose] may use. *)

val end_bank : policy -> nbanks:int -> purpose -> int
(** One past the highest bank [purpose] may use: every purpose may use a
    contiguous run of banks. *)

val probe_label : ?card:int -> ?bank:int -> string -> string
(** The one probe label scheme shared by bank accounting and per-card
    accounting, so an array wrapping banked managers never produces
    duplicated counter names:

    - [probe_label "client_writes"] = ["storage.manager.client_writes"]
      (the historical single-manager names, unchanged);
    - [probe_label ~card:2 "client_writes"] = ["storage.card2.client_writes"];
    - [probe_label ~card:2 ~bank:1 "programs"] =
      ["storage.card2.bank1.programs"];
    - [probe_label ~bank:1 "programs"] = ["storage.manager.bank1.programs"]. *)
