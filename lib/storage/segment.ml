(* [Storage.Array] (the card array) would shadow the stdlib inside this library. *)
module Array = Stdlib.Array
type state = Free | Open | Closed

(* Block handles are non-negative. *)
let empty = -1

type t = {
  id : int;
  first_sector : int;
  slots : int array;  (** The live block in each slot, [empty] if none. *)
  mutable state : state;
  mutable next_slot : int;
  mutable live : int;
  mutable last_touched : Sim.Time.t;
}

let create ~id ~first_sector ~nslots =
  if nslots <= 0 then invalid_arg "Segment.create: nslots <= 0";
  {
    id;
    first_sector;
    slots = Array.make nslots empty;
    state = Free;
    next_slot = 0;
    live = 0;
    last_touched = Sim.Time.zero;
  }

let id t = t.id
let state t = t.state
let nslots t = Array.length t.slots
let first_sector t = t.first_sector

let sector_of_slot t slot =
  if slot < 0 || slot >= nslots t then invalid_arg "Segment.sector_of_slot";
  t.first_sector + slot

let open_ t =
  match t.state with
  | Free -> t.state <- Open
  | Open | Closed -> invalid_arg "Segment.open_: not free"

(* A full segment is Closed, so the state check also refuses a full one. *)
let append t ~block =
  (match t.state with
  | Open -> ()
  | Free | Closed -> invalid_arg "Segment.append: not open");
  let slot = t.next_slot in
  t.slots.(slot) <- block;
  t.next_slot <- slot + 1;
  t.live <- t.live + 1;
  if t.next_slot = nslots t then t.state <- Closed;
  slot

let kill t ~slot =
  if slot < 0 || slot >= nslots t then invalid_arg "Segment.kill: slot out of range";
  if t.slots.(slot) = empty then invalid_arg "Segment.kill: slot empty";
  t.slots.(slot) <- empty;
  t.live <- t.live - 1

let block_at t slot =
  if slot < 0 || slot >= nslots t then invalid_arg "Segment.block_at";
  t.slots.(slot)

let live_count t = t.live
let used_slots t = t.next_slot
let utilization t = float_of_int t.live /. float_of_int (nslots t)

let close t =
  match t.state with
  | Open -> t.state <- Closed
  | Free | Closed -> invalid_arg "Segment.close: not open"

let reset_to_free t =
  if t.live > 0 then invalid_arg "Segment.reset_to_free: live blocks remain";
  Array.fill t.slots 0 (nslots t) empty;
  t.next_slot <- 0;
  t.state <- Free

let touch t ~at = t.last_touched <- at
let last_touched t = t.last_touched
