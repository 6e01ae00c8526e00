open Sim

(* A growable array of block handles: the flat block map.  Slots hold the
   handle directly (block ids are non-negative ints) with [no_block] as the
   hole sentinel, so the per-block read/write path never touches an option
   box — every replayed record walks this structure. *)
module Blockmap = struct
  type t = { mutable slots : int array; mutable len : int }

  let no_block = -1

  let create () = { slots = [||]; len = 0 }
  let length t = t.len

  (* Unboxed lookup: the handle, or [no_block] for a hole / out of range. *)
  let find t i = if i < t.len then t.slots.(i) else no_block

  let ensure t n =
    if n > Array.length t.slots then begin
      let cap = max 8 (max n (2 * Array.length t.slots)) in
      let slots = Array.make cap no_block in
      Array.blit t.slots 0 slots 0 t.len;
      t.slots <- slots
    end;
    if n > t.len then t.len <- n

  let set t i b =
    if b < 0 then invalid_arg "Blockmap.set: negative block";
    ensure t (i + 1);
    t.slots.(i) <- b

  (* Shrink to [n] slots, handing each dropped live handle to [f] in
     ascending slot order.  A slot is emptied before [f] sees its handle,
     so a raising [f] leaves a valid, partly cropped map. *)
  let crop t n f =
    let n = max n 0 in
    for i = n to t.len - 1 do
      let b = t.slots.(i) in
      t.slots.(i) <- no_block;
      if b <> no_block then f b
    done;
    if n < t.len then t.len <- n

  let iter_live f t =
    for i = 0 to t.len - 1 do
      let b = t.slots.(i) in
      if b <> no_block then f b
    done
end

type node = File of file | Dir of (string, node) Hashtbl.t

and file = { mutable size : int; map : Blockmap.t }

(* Directory tables start large enough that workload-scale directories
   (hundreds to thousands of entries under one data directory) do not pay
   repeated rehash-and-copy cycles while a trace replays. *)
let dir_table_size = 64

type t = {
  store : Storage.Store.t;
  root : (string, node) Hashtbl.t;
  mutable files : int;
  mutable dirs : int;
}

let create_fs_store ~store () =
  { store; root = Hashtbl.create 64; files = 0; dirs = 1 }

let create_fs ~manager () = create_fs_store ~store:(Storage.Store.Single manager) ()
let store t = t.store

let manager t =
  match t.store with
  | Storage.Store.Single m -> m
  | Storage.Store.Striped _ ->
    invalid_arg "Memfs.manager: fs is mounted on a multi-card array"

let name _ = "memfs"

(* Metadata touches are ordinary DRAM accesses; 64 bytes approximates a
   directory entry or inode record. *)
let meta_read t = Device.Dram.read (Storage.Store.dram t.store) ~bytes:64
let meta_write t = Device.Dram.write (Storage.Store.dram t.store) ~bytes:64

let ( let* ) = Result.bind

(* Walk [components] down from [table], charging one metadata read per
   directory traversed: the table reached and the accumulated charge. *)
let rec walk_dir t table components charge =
  match components with
  | [] -> Ok (table, charge)
  | name :: rest -> begin
    let charge = Time.span_add charge (meta_read t) in
    match Hashtbl.find_opt table name with
    | Some (Dir sub) -> walk_dir t sub rest charge
    | Some (File _) -> Error Fs_error.Enotdir
    | None -> Error Fs_error.Enoent
  end

(* Where a path leads: the root itself, or a leaf name in its parent
   directory's table together with what walking to that table cost. *)
type place = Root | Leaf of (string, node) Hashtbl.t * string * Time.span

let locate t path =
  let* components = Path.parse path in
  match Path.split_last components with
  | None -> Ok Root
  | Some (parent, name) ->
    let* table, charge = walk_dir t t.root parent Time.span_zero in
    Ok (Leaf (table, name, charge))

(* Run [leaf] on the leaf [path] names; [root] answers for "/" itself. *)
let at_path t path ~root leaf =
  match locate t path with
  | Error e -> Error e
  | Ok Root -> root
  | Ok (Leaf (table, name, charge)) -> leaf table name charge

(* The leaf lookup costs one more metadata read, charged even when the
   caller discards the span. *)
let leaf_charge t charge = Time.span_add charge (meta_read t)

let block_bytes t = Storage.Store.block_bytes t.store

let p_writes = Sim.Probe.counter "fs.memfs.writes"
let p_reads = Sim.Probe.counter "fs.memfs.reads"

let write_body t f ~offset ~bytes ~charge =
  let charge =
    if bytes <= 0 then charge
    else begin
      let bs = block_bytes t in
      let first = offset / bs and last = (offset + bytes - 1) / bs in
      (* Thread completion time through the blocks: each access issues when
         its predecessor finished. *)
      let start = Sim.Engine.now (Storage.Store.engine t.store) in
      let cursor = ref (Time.add start charge) in
      for i = first to last do
        let b =
          let b = Blockmap.find f.map i in
          if b <> Blockmap.no_block then b
          else begin
            let b = Storage.Store.alloc t.store in
            Blockmap.set f.map i b;
            b
          end
        in
        cursor := Storage.Store.write_block_at t.store ~at:!cursor b
      done;
      f.size <- max f.size (offset + bytes);
      Time.diff !cursor start
    end
  in
  Ok (Time.span_add charge (meta_write t))

let read_body t f ~offset ~bytes ~charge =
  let bytes = max 0 (min bytes (f.size - offset)) in
  if bytes <= 0 then Ok charge
  else begin
    let bs = block_bytes t in
    let first = offset / bs and last = (offset + bytes - 1) / bs in
    let start = Sim.Engine.now (Storage.Store.engine t.store) in
    let cursor = ref (Time.add start charge) in
    for i = first to last do
      (* How much of this block the range covers. *)
      let lo = max offset (i * bs) and hi = min (offset + bytes) ((i + 1) * bs) in
      let n = hi - lo in
      let b = Blockmap.find f.map i in
      if b <> Blockmap.no_block then
        cursor := Storage.Store.read_block_at ~bytes:n t.store ~at:!cursor b
      else
        cursor :=
          Time.add !cursor (Device.Dram.read (Storage.Store.dram t.store) ~bytes:n)
    done;
    Ok (Time.diff !cursor start)
  end

(* --- Leaf operations -----------------------------------------------------

   Each operation has one implementation, entered with the table holding
   the leaf and what reaching that table cost: the path operations walk
   there component by component ([at_path]), the [_in] operations charge a
   pre-resolved route's depth without the walk ([route_charge]).  The
   charge is threaded as a value and missing leaves are caught as
   [Not_found], so a leaf operation allocates nothing before its result. *)

let create_leaf t table name charge =
  let charge = leaf_charge t charge in
  if Hashtbl.mem table name then Error Fs_error.Eexist
  else begin
    Hashtbl.replace table name (File { size = 0; map = Blockmap.create () });
    t.files <- t.files + 1;
    Ok (Time.span_add charge (meta_write t))
  end

let exists_leaf t table name charge =
  ignore (leaf_charge t charge : Time.span);
  Hashtbl.mem table name

let write_leaf t ~offset ~bytes table name charge =
  let charge = leaf_charge t charge in
  match Hashtbl.find table name with
  | File f -> write_body t f ~offset ~bytes ~charge
  | Dir _ -> Error Fs_error.Eisdir
  | exception Not_found -> Error Fs_error.Enoent

let read_leaf t ~offset ~bytes table name charge =
  let charge = leaf_charge t charge in
  match Hashtbl.find table name with
  | File f -> read_body t f ~offset ~bytes ~charge
  | Dir _ -> Error Fs_error.Eisdir
  | exception Not_found -> Error Fs_error.Enoent

let truncate_leaf t ~size table name charge =
  let charge = leaf_charge t charge in
  match Hashtbl.find table name with
  | File f ->
    let keep = Units.ceil_div size (block_bytes t) in
    Blockmap.crop f.map keep (Storage.Store.free_block t.store);
    f.size <- min f.size size;
    Ok (Time.span_add charge (meta_write t))
  | Dir _ -> Error Fs_error.Eisdir
  | exception Not_found -> Error Fs_error.Enoent

let unlink_leaf t table name charge =
  let charge = leaf_charge t charge in
  match Hashtbl.find table name with
  | File f ->
    Blockmap.iter_live (Storage.Store.free_block t.store) f.map;
    Hashtbl.remove table name;
    t.files <- t.files - 1;
    Ok (Time.span_add charge (meta_write t))
  | Dir _ -> Error Fs_error.Eisdir
  | exception Not_found -> Error Fs_error.Enoent

let file_leaf t table name charge =
  ignore (leaf_charge t charge : Time.span);
  match Hashtbl.find_opt table name with
  | Some (File f) -> Ok f
  | Some (Dir _) -> Error Fs_error.Eisdir
  | None -> Error Fs_error.Enoent

(* --- Path operations ------------------------------------------------------- *)

let lookup_file t path = at_path t path ~root:(Error Fs_error.Eisdir) (file_leaf t)
let create t path = at_path t path ~root:(Error Fs_error.Eexist) (create_leaf t)
let unlink t path = at_path t path ~root:(Error Fs_error.Eisdir) (unlink_leaf t)

let exists t path =
  match locate t path with
  | Ok Root -> true
  | Ok (Leaf (table, name, charge)) -> exists_leaf t table name charge
  | Error _ -> false

let write t path ~offset ~bytes =
  if offset < 0 || bytes < 0 then Error Fs_error.Einval
  else begin
    Sim.Probe.incr p_writes;
    at_path t path ~root:(Error Fs_error.Eisdir) (write_leaf t ~offset ~bytes)
  end

let read t path ~offset ~bytes =
  if offset < 0 || bytes < 0 then Error Fs_error.Einval
  else begin
    Sim.Probe.incr p_reads;
    at_path t path ~root:(Error Fs_error.Eisdir) (read_leaf t ~offset ~bytes)
  end

let truncate t path ~size =
  if size < 0 then Error Fs_error.Einval
  else at_path t path ~root:(Error Fs_error.Eisdir) (truncate_leaf t ~size)

let mkdir t path =
  at_path t path ~root:(Error Fs_error.Eexist) (fun table name charge ->
      let charge = leaf_charge t charge in
      if Hashtbl.mem table name then Error Fs_error.Eexist
      else begin
        Hashtbl.replace table name (Dir (Hashtbl.create dir_table_size));
        t.dirs <- t.dirs + 1;
        Ok (Time.span_add charge (meta_write t))
      end)

let rmdir t path =
  at_path t path ~root:(Error Fs_error.Einval) (fun table name charge ->
      let charge = leaf_charge t charge in
      match Hashtbl.find_opt table name with
      | None -> Error Fs_error.Enoent
      | Some (File _) -> Error Fs_error.Enotdir
      | Some (Dir sub) when Hashtbl.length sub > 0 -> Error Fs_error.Enotempty
      | Some (Dir _) ->
        Hashtbl.remove table name;
        t.dirs <- t.dirs - 1;
        Ok (Time.span_add charge (meta_write t)))

(* Is [dst] inside the subtree rooted at [src]?  (Moving a directory into
   itself would orphan the whole subtree.) *)
let is_path_prefix ~src ~dst =
  let rec go a b =
    match (a, b) with
    | [], _ -> true
    | x :: a', y :: b' when String.equal x y -> go a' b'
    | _ -> false
  in
  go src dst

let rename t src_path dst_path =
  let* src = Path.parse src_path in
  let* dst = Path.parse dst_path in
  if is_path_prefix ~src ~dst then Error Fs_error.Einval
  else
    at_path t src_path ~root:(Error Fs_error.Einval) (fun src_table src_name charge ->
        let charge = leaf_charge t charge in
        match Hashtbl.find_opt src_table src_name with
        | None -> Error Fs_error.Enoent
        | Some node ->
          at_path t dst_path ~root:(Error Fs_error.Eexist)
            (fun dst_table dst_name dst_charge ->
              let charge = leaf_charge t (Time.span_add charge dst_charge) in
              if Hashtbl.mem dst_table dst_name then Error Fs_error.Eexist
              else begin
                Hashtbl.remove src_table src_name;
                Hashtbl.replace dst_table dst_name node;
                Ok (Time.span_add charge (meta_write t))
              end))

let file_size t path =
  let* f = lookup_file t path in
  Ok f.size

let readdir t path =
  let listing table =
    Ok (List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) table []))
  in
  match locate t path with
  | Error e -> Error e
  | Ok Root -> listing t.root
  | Ok (Leaf (table, name, charge)) -> (
    ignore (leaf_charge t charge : Time.span);
    match Hashtbl.find_opt table name with
    | Some (Dir sub) -> listing sub
    | Some (File _) -> Error Fs_error.Enotdir
    | None -> Error Fs_error.Enoent)

let sync t = Storage.Store.flush_all t.store

let preload t path ~size =
  if size < 0 then Error Fs_error.Einval
  else begin
    let* _span = create t path in
    let* f = lookup_file t path in
    let bs = block_bytes t in
    for i = 0 to Units.ceil_div size bs - 1 do
      let b = Storage.Store.alloc t.store in
      Storage.Store.load_cold t.store b;
      Blockmap.set f.map i b
    done;
    f.size <- size;
    Ok ()
  end

(* --- Pre-resolved routes (replay) ------------------------------------------

   A route pins a file's parent directory table so the hot replay loop
   skips path formatting, parsing, and the per-component string lookups —
   while charging exactly what the path-based walk charges (one metadata
   read per component plus one for the leaf) and still looking the leaf up
   on every operation (files come and go mid-trace).  Resolving the route
   itself is side-effect-free setup: no metadata charges, so building or
   rebuilding routes mid-run (after a cold restart) cannot perturb the
   device meters. *)

type dirh = { parent : (string, node) Hashtbl.t; depth : int }

let route t dirpath =
  let* components = Path.parse dirpath in
  let rec go table = function
    | [] -> Ok { parent = table; depth = List.length components }
    | name :: rest -> begin
      match Hashtbl.find_opt table name with
      | Some (Dir sub) -> go sub rest
      | Some (File _) -> Error Fs_error.Enotdir
      | None -> Error Fs_error.Enoent
    end
  in
  go t.root components

(* The walk's charges, without the walk. *)
let route_charge t d =
  let c = ref Time.span_zero in
  for _ = 1 to d.depth do
    c := Time.span_add !c (meta_read t)
  done;
  !c

let create_in t d name = create_leaf t d.parent name (route_charge t d)
let exists_in t d name = exists_leaf t d.parent name (route_charge t d)
let unlink_in t d name = unlink_leaf t d.parent name (route_charge t d)

let write_in t d name ~offset ~bytes =
  if offset < 0 || bytes < 0 then Error Fs_error.Einval
  else begin
    Sim.Probe.incr p_writes;
    write_leaf t ~offset ~bytes d.parent name (route_charge t d)
  end

let read_in t d name ~offset ~bytes =
  if offset < 0 || bytes < 0 then Error Fs_error.Einval
  else begin
    Sim.Probe.incr p_reads;
    read_leaf t ~offset ~bytes d.parent name (route_charge t d)
  end

let truncate_in t d name ~size =
  if size < 0 then Error Fs_error.Einval
  else truncate_leaf t ~size d.parent name (route_charge t d)

(* Blocks are listed with their slot index: a file may have holes, and a
   crash can lose blocks out of the middle of one, so a namespace rebuilt
   from a dense block list would shift every block after a gap into the
   wrong offset. *)
let enumerate t =
  let acc = ref [] in
  let rec walk prefix node =
    match node with
    | File f ->
      let blocks = ref [] in
      for i = Blockmap.length f.map - 1 downto 0 do
        let b = Blockmap.find f.map i in
        if b <> Blockmap.no_block then blocks := (i, b) :: !blocks
      done;
      acc := (prefix, f.size, !blocks) :: !acc
    | Dir table ->
      Hashtbl.iter (fun name child -> walk (prefix ^ "/" ^ name) child) table
  in
  Hashtbl.iter (fun name child -> walk ("/" ^ name) child) t.root;
  List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) !acc

let adopt t path ~size ~blocks =
  List.iter
    (fun (_, b) ->
      if not (Storage.Store.block_exists t.store b) then
        invalid_arg "Memfs.adopt: unknown block")
    blocks;
  let* _span = create t path in
  let* f = lookup_file t path in
  List.iter (fun (i, b) -> Blockmap.set f.map i b) blocks;
  f.size <- size;
  Ok ()

let rec node_metadata_bytes = function
  | File f -> 64 + (8 * Blockmap.length f.map)
  | Dir table -> Hashtbl.fold (fun _ n acc -> acc + 64 + node_metadata_bytes n) table 64

let metadata_bytes t = node_metadata_bytes (Dir t.root)

let file_blocks t path =
  let* f = lookup_file t path in
  let acc = ref [] in
  Blockmap.iter_live (fun b -> acc := b :: !acc) f.map;
  Ok (List.rev !acc)

let check t =
  (* Collect every block reachable from the namespace, rejecting double
     references. *)
  let seen = Hashtbl.create 1024 in
  let duplicate = ref None in
  let rec walk path = function
    | File f ->
      Blockmap.iter_live
        (fun b ->
          if Hashtbl.mem seen b then duplicate := Some (path, b)
          else Hashtbl.replace seen b ())
        f.map
    | Dir table -> Hashtbl.iter (fun name node -> walk (path ^ "/" ^ name) node) table
  in
  walk "" (Dir t.root);
  match !duplicate with
  | Some (path, b) -> Error (Printf.sprintf "block %d referenced twice (at %s)" b path)
  | None ->
    let stats = Storage.Store.stats t.store in
    let managed =
      stats.Storage.Manager.live_blocks + stats.Storage.Manager.dirty_blocks
    in
    if managed <> Hashtbl.length seen then
      Error
        (Printf.sprintf "manager holds %d blocks but the namespace reaches %d" managed
           (Hashtbl.length seen))
    else begin
      (* Every reachable block must have a home: buffered or in flash. *)
      let homeless =
        Hashtbl.fold
          (fun b () acc ->
            match Storage.Store.segment_of_block t.store b with
            | Some _ -> acc
            | None -> if Storage.Store.block_is_dirty t.store b then acc else b :: acc)
          seen []
      in
      match homeless with
      | [] -> Ok ()
      | b :: _ -> Error (Printf.sprintf "block %d has no flash home and is not dirty" b)
    end
