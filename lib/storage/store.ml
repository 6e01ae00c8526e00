type t = Single of Manager.t | Striped of Array.t

let block_bytes = function
  | Single m -> Manager.block_bytes m
  | Striped a -> Array.block_bytes a

let capacity_blocks = function
  | Single m -> Manager.capacity_blocks m
  | Striped a -> Array.capacity_blocks a

let alloc = function Single m -> Manager.alloc m | Striped a -> Array.alloc a

let write_block t b =
  match t with Single m -> Manager.write_block m b | Striped a -> Array.write_block a b

let write_block_at t ~at b =
  match t with
  | Single m -> Manager.write_block_at m ~at b
  | Striped a -> Array.write_block_at a ~at b

let read_block ?bytes t b =
  match t with
  | Single m -> Manager.read_block ?bytes m b
  | Striped a -> Array.read_block ?bytes a b

let read_block_at ?bytes t ~at b =
  match t with
  | Single m -> Manager.read_block_at ?bytes m ~at b
  | Striped a -> Array.read_block_at ?bytes a ~at b

let free_block t b =
  match t with Single m -> Manager.free_block m b | Striped a -> Array.free_block a b

let load_cold t b =
  match t with Single m -> Manager.load_cold m b | Striped a -> Array.load_cold a b

let flush_all = function
  | Single m -> Manager.flush_all m
  | Striped a -> Array.flush_all a

let stats = function Single m -> Manager.stats m | Striped a -> Array.stats a
let dram = function Single m -> Manager.dram m | Striped a -> Array.dram a
let engine = function Single m -> Manager.engine m | Striped a -> Array.engine a

let segment_of_block t b =
  match t with
  | Single m -> Manager.segment_of_block m b
  | Striped a -> Array.segment_of_block a b

let block_is_dirty t b =
  match t with
  | Single m -> Manager.block_is_dirty m b
  | Striped a -> Array.block_is_dirty a b

let block_exists t b =
  match t with
  | Single m -> Manager.block_exists m b
  | Striped a -> Array.block_exists a b

let reset_traffic = function
  | Single m -> Manager.reset_traffic m
  | Striped a -> Array.reset_traffic a

let managers = function
  | Single m -> [| m |]
  | Striped a -> Stdlib.Array.init (Array.ncards a) (Array.manager a)

let health = function
  | Single _ -> `Healthy
  | Striped a -> Array.health a

let diff_stats = function
  | Single m -> Manager.diff_stats m
  | Striped a -> Array.diff_stats a

let parity_stats = function
  | Single _ -> None
  | Striped a -> (
    match Array.striping a with
    | Striping.Parity _ -> Some (Array.parity_stats a)
    | Striping.Round_robin _ -> None)

let crash_and_remount = function
  | Single m ->
    let fresh, span, report = Manager.crash_and_remount m in
    (Single fresh, span, report)
  | Striped a ->
    let fresh, span, report = Array.crash_and_remount a in
    (Striped fresh, span, report)
