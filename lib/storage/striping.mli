(** Block-placement policies for multi-card arrays.

    An array over N cards needs a pure function from a global block handle
    to the card that stores it.  Global handles are allocated densely from
    zero and never reused (the managers' own allocation discipline), so the
    card-local handle is fully determined too: it is the rank of the global
    handle among all handles routed to that card.  Both directions are
    closed-form for every policy here — the array keeps {e no} placement
    table, which is what makes crash recovery trivial: remounting each card
    recovers its local handles, and the inverse mapping reconstructs the
    global ones.

    [Round_robin] with strip size [s] sends [s] consecutive handles to each
    card in turn (the PFS striping shape: sequential files spread across
    every card at strip granularity); a strip of 1 is the modulo
    placement.

    [Parity] adds redundancy (the RAID-4/5 shapes): each stripe of
    [s * (N-1)] data blocks is protected by a strip of [s] parity blocks
    on one card — fixed at card [N-1] when [rotate] is false (RAID-4),
    rotating across cards per stripe when true (RAID-5, spreading the
    parity write load).  Client handles name data blocks only; the array
    allocates the parity strip's locals eagerly when a stripe opens, so
    every card still receives exactly [s] locals per complete stripe and
    the per-card cursors remain pure functions of the global one.  Row
    [off] of stripe [k] — the [N-1] data blocks plus their parity block —
    all sit at the {e same} local handle [k*s + off] on their respective
    cards, which is what makes degraded reconstruction "read local [l]
    from every surviving card". *)

type policy =
  | Round_robin of { strip_blocks : int }
  | Parity of { strip_blocks : int; rotate : bool }

val policy_name : policy -> string
val pp_policy : Format.formatter -> policy -> unit

val validate : policy -> ncards:int -> (unit, string) result
(** [ncards] must be positive; strips must be positive; parity needs at
    least 2 cards (one data + one parity). *)

val card_of : policy -> ncards:int -> block:int -> int
(** The card storing global handle [block]. *)

val local_of : policy -> ncards:int -> block:int -> int
(** The card-local handle: how many global handles before [block] were
    routed to the same card (under [Parity], counting the eagerly
    allocated parity locals).  Dense allocation makes this the exact
    handle the card's manager hands out. *)

val global_of : policy -> ncards:int -> card:int -> local:int -> int
(** Inverse of [card_of]/[local_of]:
    [global_of p ~ncards ~card:(card_of p ~ncards ~block:g)
       ~local:(local_of p ~ncards ~block:g) = g].
    @raise Invalid_argument under [Parity] when [(card, local)] is a
    parity slot — parity blocks have no global handle. *)

val locals_before : policy -> ncards:int -> card:int -> int -> int
(** [locals_before p ~ncards ~card g]: how many locals [card] holds when
    the global cursor is [g] — data locals routed there plus (under
    [Parity]) parity locals allocated eagerly at stripe opens.  After a
    crash, cards may have lost different numbers of tail allocations
    (blocks that died before ever reaching flash); the array uses this to
    re-align every card's cursor with the recovered global one. *)

(** {1 Parity geometry} — all [None]/raising for non-parity policies. *)

val parity_slot : policy -> ncards:int -> block:int -> (int * int) option
(** The [(card, local)] of the parity block covering [block]'s row.  The
    local equals [local_of block] — a row occupies the same local on
    every card. *)

val parity_card_of_local : policy -> ncards:int -> local:int -> int
(** Which card holds the parity strip of the stripe containing [local]
    ([local / strip_blocks]).  A slot [(card, local)] is a parity slot
    iff [card = parity_card_of_local local].
    @raise Invalid_argument for non-parity policies. *)

val parity_prealloc : policy -> ncards:int -> block:int -> (int * int * int) option
(** When allocating global [block] opens a new stripe, the parity strip
    to allocate first: [Some (card, first_local, count)].  [None] when
    the stripe is already open (or the policy has no parity). *)

val min_global_cursor : policy -> ncards:int -> card:int -> local:int -> int
(** The smallest global allocation cursor consistent with [local]
    existing on [card] — [global_of + 1] for a data slot; for a parity
    slot (which eager allocation creates the moment its stripe opens),
    one past the stripe's first data block.  Remount rebuilds the global
    cursor as the max of this over every card's deepest recovered
    local. *)
