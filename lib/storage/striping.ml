type policy =
  | Round_robin of { strip_blocks : int }
  | Parity of { strip_blocks : int; rotate : bool }

let policy_name = function
  | Round_robin _ -> "round-robin"
  | Parity { rotate = true; _ } -> "parity-rotating"
  | Parity { rotate = false; _ } -> "parity-fixed"

let pp_policy ppf = function
  | Round_robin { strip_blocks } ->
      Format.fprintf ppf "round-robin(strip=%d)" strip_blocks
  | Parity { strip_blocks; rotate } ->
      Format.fprintf ppf "parity(strip=%d,%s)" strip_blocks
        (if rotate then "rotating" else "fixed")

let validate p ~ncards =
  if ncards <= 0 then Error (Printf.sprintf "array needs >= 1 card, got %d" ncards)
  else
    match p with
    | Round_robin { strip_blocks } when strip_blocks <= 0 ->
        Error
          (Printf.sprintf "round-robin strip size must be positive, got %d"
             strip_blocks)
    | Parity { strip_blocks; _ } when strip_blocks <= 0 ->
        Error
          (Printf.sprintf "parity strip size must be positive, got %d"
             strip_blocks)
    | Parity _ when ncards < 2 ->
        Error
          (Printf.sprintf "parity needs >= 2 cards (1 data + 1 parity), got %d"
             ncards)
    | Round_robin _ | Parity _ -> Ok ()

(* Handles are dense from 0, so both directions stay pure integer
   arithmetic.

   [Parity] reserves one strip per stripe for parity.  A stripe is [s]
   rows by [ncards] columns; each row holds [ncards - 1] data blocks plus
   one parity block, and the whole parity column of stripe [k] sits on
   card [p(k)] ([ncards - 1] fixed for RAID-4, rotating right-to-left for
   RAID-5).  Client handles cover {e data} blocks only — [s * (ncards-1)]
   per stripe — while the array allocates the parity strip's locals
   eagerly when a stripe opens, so every card still receives exactly [s]
   locals per complete stripe and the per-card cursors stay pure
   functions of the global one (the table-free recovery invariant).

   Row geometry: global [g] in stripe [k = g / (s*(ncards-1))] at data
   column [j = (g mod stripe) / s], in-strip offset [off = g mod s].  The
   block lands on card [j] if [j < p(k)], else [j + 1] (skipping the
   parity column), always at local [k*s + off] — the same local its row
   mates and its parity block occupy on their cards, which is what makes
   degraded reconstruction "read local l on every other card". *)

let stripe_data ~ncards s = s * (ncards - 1)

let parity_card_of_stripe ~ncards ~rotate k =
  if rotate then ncards - 1 - (k mod ncards) else ncards - 1

let card_of p ~ncards ~block =
  match p with
  | Round_robin { strip_blocks = s } -> block / s mod ncards
  | Parity { strip_blocks = s; rotate } ->
      let sd = stripe_data ~ncards s in
      let k = block / sd in
      let j = block mod sd / s in
      if j < parity_card_of_stripe ~ncards ~rotate k then j else j + 1

let local_of p ~ncards ~block =
  match p with
  | Round_robin { strip_blocks = s } ->
      (* Full stripes before this one contribute [s] blocks to every card;
         the current strip contributes the in-strip offset. *)
      (block / (s * ncards) * s) + (block mod s)
  | Parity { strip_blocks = s; rotate = _ } ->
      (block / stripe_data ~ncards s * s) + (block mod s)

let global_of p ~ncards ~card ~local =
  match p with
  | Round_robin { strip_blocks = s } ->
      (local / s * (s * ncards)) + (card * s) + (local mod s)
  | Parity { strip_blocks = s; rotate } ->
      let k = local / s in
      let pc = parity_card_of_stripe ~ncards ~rotate k in
      if card = pc then
        invalid_arg
          (Printf.sprintf
             "Striping.global_of: (card %d, local %d) is stripe %d's parity \
              slot, not a data block"
             card local k)
      else
        let j = if card < pc then card else card - 1 in
        (k * stripe_data ~ncards s) + (j * s) + (local mod s)

let locals_before p ~ncards ~card g =
  match p with
  | Round_robin { strip_blocks = s } ->
      (* Whole stripes contribute [s] each; within the current stripe the
         card's strip is [card*s .. card*s + s). *)
      let stripe = s * ncards in
      let full = g / stripe * s in
      let rem = g mod stripe in
      full + max 0 (min s (rem - (card * s)))
  | Parity { strip_blocks = s; rotate } ->
      (* Complete stripes contribute [s] to every card (data strip or
         eagerly allocated parity strip).  In the open stripe, the parity
         card got all [s] of its locals the moment the stripe opened; a
         data card's strip fills [s] globals at a time in column order. *)
      let sd = stripe_data ~ncards s in
      let k = g / sd in
      let r = g mod sd in
      let full = k * s in
      if r = 0 then full
      else
        let pc = parity_card_of_stripe ~ncards ~rotate k in
        if card = pc then full + s
        else
          let j = if card < pc then card else card - 1 in
          full + max 0 (min s (r - (j * s)))

let parity_slot p ~ncards ~block =
  match p with
  | Round_robin _ -> None
  | Parity { strip_blocks = s; rotate } ->
      let k = block / stripe_data ~ncards s in
      Some
        ( parity_card_of_stripe ~ncards ~rotate k,
          (k * s) + (block mod s) )

let parity_card_of_local p ~ncards ~local =
  match p with
  | Round_robin _ ->
      invalid_arg "Striping.parity_card_of_local: not a parity policy"
  | Parity { strip_blocks = s; rotate } ->
      parity_card_of_stripe ~ncards ~rotate (local / s)

let parity_prealloc p ~ncards ~block =
  match p with
  | Round_robin _ -> None
  | Parity { strip_blocks = s; rotate } ->
      let sd = stripe_data ~ncards s in
      if block mod sd <> 0 then None
      else
        let k = block / sd in
        Some (parity_card_of_stripe ~ncards ~rotate k, k * s, s)

let min_global_cursor p ~ncards ~card ~local =
  match p with
  | Round_robin _ -> global_of p ~ncards ~card ~local + 1
  | Parity { strip_blocks = s; rotate } ->
      let k = local / s in
      if card = parity_card_of_stripe ~ncards ~rotate k then
        (* A parity local exists as soon as its stripe opens: all it
           implies is that stripe [k]'s first data block was allocated. *)
        (k * stripe_data ~ncards s) + 1
      else global_of p ~ncards ~card ~local + 1
