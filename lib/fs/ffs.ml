open Sim
module Buffer_cache = Storage.Buffer_cache

type config = {
  fs_block_bytes : int;
  frag_per_block : int;
  groups : int;
  ninodes : int;
  cache_blocks : int;
  sync_metadata : bool;
  update_interval : Time.span;
}

let default_config =
  {
    fs_block_bytes = 4096;
    frag_per_block = 4;  (* 1KB fragments, as in 4.2BSD's 4096/1024 *)
    groups = 8;
    ninodes = 8192;
    cache_blocks = 64;  (* 256 KB of cache *)
    sync_metadata = true;
    update_interval = Time.span_s 30.0;
  }

type inode = {
  mutable kind : [ `File | `Dir ];
  mutable size : int;
  direct : int array;  (* fs-block addresses; -1 = hole *)
  mutable single : int;  (* address of the single-indirect block; -1 = none *)
  mutable double : int;
  mutable tail_frags : int;
      (* Fragments backing the file's final partial block (0 = the tail,
         if any, occupies a whole block).  The fragment-carrying block's
         address sits in the ordinary block map at index [size / bs]. *)
}

type t = {
  cfg : config;
  engine : Engine.t;
  disk : Device.Disk.t;
  dram : Device.Dram.t;
  cache : Buffer_cache.t;
  ptrs : int;
  nblocks : int;  (* total fs blocks on the disk *)
  data_start : int;  (* first data-region block *)
  itable_start : int;
  free : bool array;  (* data-region occupancy, indexed from data_start *)
  mutable free_count : int;
  group_hint : int array;  (* next-fit hint per allocation group *)
  inodes : inode option array;
  mutable ino_hint : int;
  indirects : (int, int array) Hashtbl.t;  (* block address -> pointers *)
  dir_entries : (int, (string, int) Hashtbl.t) Hashtbl.t;
  dir_blocks : (int, int list) Hashtbl.t;  (* ino -> data blocks, newest first *)
  frag_free : (int, int) Hashtbl.t;
      (* Fragmented blocks: address -> fragments still free.  Blocks not in
         this table are either whole-block allocations or free. *)
}

let dir_entries_per_block = 64
let root_ino = 0

let sectors_per_block cfg = cfg.fs_block_bytes / 512

let name _ = "ffs"
let config t = t.cfg
let disk t = t.disk
let cache t = t.cache
let free_blocks t = t.free_count
let data_blocks t = Array.length t.free

let used_bytes t =
  let whole = (Array.length t.free - t.free_count) * t.cfg.fs_block_bytes in
  let frag_slack =
    Hashtbl.fold (fun _ free acc -> acc + free) t.frag_free 0
    * (t.cfg.fs_block_bytes / t.cfg.frag_per_block)
  in
  whole - frag_slack

(* --- Raw block access through the buffer cache --------------------------- *)

let disk_io t ~cursor ~addr ~kind =
  let lba = addr * sectors_per_block t.cfg in
  let op =
    Device.Disk.access t.disk ~now:!cursor ~lba ~bytes:t.cfg.fs_block_bytes ~kind
  in
  cursor := op.Device.Disk.finish

let dram_span ~cursor span = cursor := Time.add !cursor span

let write_back_victims t ~cursor victims =
  List.iter (fun addr -> disk_io t ~cursor ~addr ~kind:`Write) victims

type access_kind = Read | Write_delayed | Write_sync | Write_fresh
(* [Write_fresh]: a full overwrite of a newly allocated block — no read
   needed, dirty in cache. *)

let p_reads = Probe.counter "fs.ffs.block_reads"
let p_writes = Probe.counter "fs.ffs.block_writes"

(* Every path is one logical cache access, so each goes through
   [find_or_insert]: exactly one hit or miss is counted per call.  The
   write paths used to reach the cache through bare [insert], which counts
   nothing — so write hits and misses were invisible to the hit-ratio
   counters E3 reports. *)
let access t ~cursor ~addr kind =
  (match kind with Read -> Probe.incr p_reads | _ -> Probe.incr p_writes);
  match kind with
  | Read -> begin
    dram_span ~cursor (Device.Dram.read t.dram ~bytes:t.cfg.fs_block_bytes);
    match Buffer_cache.find_or_insert t.cache ~key:addr ~dirty:false with
    | Buffer_cache.Hit, _ -> ()
    | Buffer_cache.Miss, victims ->
      disk_io t ~cursor ~addr ~kind:`Read;
      write_back_victims t ~cursor victims
  end
  | Write_delayed | Write_fresh ->
    dram_span ~cursor (Device.Dram.write t.dram ~bytes:t.cfg.fs_block_bytes);
    let _, victims = Buffer_cache.find_or_insert t.cache ~key:addr ~dirty:true in
    write_back_victims t ~cursor victims
  | Write_sync ->
    dram_span ~cursor (Device.Dram.write t.dram ~bytes:t.cfg.fs_block_bytes);
    let _, victims = Buffer_cache.find_or_insert t.cache ~key:addr ~dirty:false in
    disk_io t ~cursor ~addr ~kind:`Write;
    write_back_victims t ~cursor victims

let meta_write_kind t = if t.cfg.sync_metadata then Write_sync else Write_delayed

let reset_counters t = Buffer_cache.reset_counters t.cache

(* --- Layout --------------------------------------------------------------- *)

let bits_per_block cfg = cfg.fs_block_bytes * 8
let inodes_per_block cfg = cfg.fs_block_bytes / 128

let bitmap_block_of_data t idx = 1 + (idx / bits_per_block t.cfg)
let itable_block_of_ino t ino = t.itable_start + (ino / inodes_per_block t.cfg)

(* --- Allocation ------------------------------------------------------------ *)

let group_of_data_idx t idx = idx * t.cfg.groups / data_blocks t
let group_of_ino t ino = ino * t.cfg.groups / t.cfg.ninodes

(* First-fit from the preferred group's hint, wrapping around the whole
   data region; returns the fs-block address. *)
let alloc_block t ~cursor ~group =
  if t.free_count = 0 then None
  else begin
    let n = data_blocks t in
    let start = t.group_hint.(group) in
    let rec scan tried i =
      if tried >= n then None
      else if t.free.(i) then Some i
      else scan (tried + 1) ((i + 1) mod n)
    in
    match scan 0 start with
    | None -> None
    | Some idx ->
      t.free.(idx) <- false;
      t.free_count <- t.free_count - 1;
      t.group_hint.(group) <- (idx + 1) mod n;
      (* The allocator consulted and updated the bitmap block. *)
      access t ~cursor ~addr:(bitmap_block_of_data t idx) Write_delayed;
      Some (t.data_start + idx)
  end

let free_data_block t ~cursor addr =
  let idx = addr - t.data_start in
  if idx < 0 || idx >= data_blocks t then invalid_arg "Ffs.free_data_block";
  if not t.free.(idx) then begin
    t.free.(idx) <- true;
    t.free_count <- t.free_count + 1;
    let g = group_of_data_idx t idx in
    if idx < t.group_hint.(g) then t.group_hint.(g) <- idx;
    Buffer_cache.forget t.cache ~key:addr;
    Hashtbl.remove t.indirects addr;
    access t ~cursor ~addr:(bitmap_block_of_data t idx) Write_delayed
  end

(* --- Fragments ---------------------------------------------------------------- *)

let frag_bytes t = t.cfg.fs_block_bytes / t.cfg.frag_per_block

let frags_needed t bytes = Units.ceil_div bytes (frag_bytes t)

(* Take [n] of the free fragments of the fragment block at [addr]. *)
let take_frags t ~cursor addr n =
  Hashtbl.replace t.frag_free addr (Hashtbl.find t.frag_free addr - n);
  (* The fragment map lives with the allocation bitmap. *)
  access t ~cursor ~addr:(bitmap_block_of_data t (addr - t.data_start)) Write_delayed

(* Allocate [n] fragments, sharing a partially-filled fragment block when
   one has room, else breaking a fresh block into fragments. *)
let alloc_frags t ~cursor ~group n =
  if n <= 0 || n > t.cfg.frag_per_block then invalid_arg "Ffs.alloc_frags";
  let reuse =
    Hashtbl.fold
      (fun addr free acc ->
        match acc with
        | Some _ -> acc
        | None -> if free >= n then Some addr else None)
      t.frag_free None
  in
  match reuse with
  | Some addr ->
    take_frags t ~cursor addr n;
    Some addr
  | None -> begin
    match alloc_block t ~cursor ~group with
    | None -> None
    | Some addr ->
      Hashtbl.replace t.frag_free addr (t.cfg.frag_per_block - n);
      Some addr
  end

let free_frags t ~cursor addr n =
  let free = Option.value (Hashtbl.find_opt t.frag_free addr) ~default:0 in
  let free = free + n in
  if free > t.cfg.frag_per_block then invalid_arg "Ffs.free_frags: over-free";
  if free = t.cfg.frag_per_block then begin
    Hashtbl.remove t.frag_free addr;
    free_data_block t ~cursor addr
  end
  else begin
    Hashtbl.replace t.frag_free addr free;
    access t ~cursor ~addr:(bitmap_block_of_data t (addr - t.data_start)) Write_delayed
  end

let alloc_ino t ~cursor =
  let n = t.cfg.ninodes in
  let rec scan tried i =
    if tried >= n then None
    else if t.inodes.(i) = None then Some i
    else scan (tried + 1) ((i + 1) mod n)
  in
  match scan 0 t.ino_hint with
  | None -> None
  | Some ino ->
    t.ino_hint <- (ino + 1) mod n;
    access t ~cursor ~addr:(itable_block_of_ino t ino) Read;
    Some ino

let touch_inode t ~cursor ~ino kind = access t ~cursor ~addr:(itable_block_of_ino t ino) kind

let get_inode t ino =
  match t.inodes.(ino) with
  | Some inode -> inode
  | None -> invalid_arg (Printf.sprintf "Ffs: dangling inode %d" ino)

(* --- Indirect-block plumbing ----------------------------------------------- *)

let indirect_entries t addr =
  match Hashtbl.find_opt t.indirects addr with
  | Some entries -> entries
  | None ->
    (* Freshly formatted indirect block: all holes. *)
    let entries = Array.make t.ptrs (-1) in
    Hashtbl.replace t.indirects addr entries;
    entries

let alloc_indirect t ~cursor ~group =
  match alloc_block t ~cursor ~group with
  | None -> None
  | Some addr ->
    ignore (indirect_entries t addr);
    access t ~cursor ~addr Write_fresh;
    Some addr

(* Resolve a file-block index to a data-block address, optionally
   allocating holes along the way.  Charges one cache access per indirect
   level touched. *)
let bmap t ~cursor ~inode ~group ~alloc i =
  let data_slot entries j =
    if entries.(j) = -1 && alloc then begin
      match alloc_block t ~cursor ~group with
      | None -> None
      | Some addr ->
        entries.(j) <- addr;
        Some addr
    end
    else if entries.(j) = -1 then None
    else Some entries.(j)
  in
  match Ffs_inode.classify ~ptrs:t.ptrs i with
  | None -> None
  | Some (Ffs_inode.Direct d) ->
    if inode.direct.(d) = -1 && alloc then begin
      match alloc_block t ~cursor ~group with
      | None -> None
      | Some addr ->
        inode.direct.(d) <- addr;
        Some addr
    end
    else if inode.direct.(d) = -1 then None
    else Some inode.direct.(d)
  | Some (Ffs_inode.Single j) -> begin
    (if inode.single = -1 && alloc then
       match alloc_indirect t ~cursor ~group with
       | Some addr -> inode.single <- addr
       | None -> ());
    if inode.single = -1 then None
    else begin
      access t ~cursor ~addr:inode.single Read;
      let entries = indirect_entries t inode.single in
      let r = data_slot entries j in
      if r <> None && alloc then access t ~cursor ~addr:inode.single Write_delayed;
      r
    end
  end
  | Some (Ffs_inode.Double (j, k)) -> begin
    (if inode.double = -1 && alloc then
       match alloc_indirect t ~cursor ~group with
       | Some addr -> inode.double <- addr
       | None -> ());
    if inode.double = -1 then None
    else begin
      access t ~cursor ~addr:inode.double Read;
      let level1 = indirect_entries t inode.double in
      (if level1.(j) = -1 && alloc then
         match alloc_indirect t ~cursor ~group with
         | Some addr ->
           level1.(j) <- addr;
           access t ~cursor ~addr:inode.double Write_delayed
         | None -> ());
      if level1.(j) = -1 then None
      else begin
        access t ~cursor ~addr:level1.(j) Read;
        let entries = indirect_entries t level1.(j) in
        let r = data_slot entries k in
        if r <> None && alloc then access t ~cursor ~addr:level1.(j) Write_delayed;
        r
      end
    end
  end

(* Point the block map's entry [i] at [addr] (-1 clears it), allocating
   indirect blocks on the way if needed; false on ENOSPC.  Used by the
   fragment plumbing, which places non-block-aligned allocations itself. *)
let bmap_assign t ~cursor ~inode ~group i addr =
  match Ffs_inode.classify ~ptrs:t.ptrs i with
  | None -> false
  | Some (Ffs_inode.Direct d) ->
    inode.direct.(d) <- addr;
    true
  | Some (Ffs_inode.Single j) -> begin
    (if inode.single = -1 && addr <> -1 then
       match alloc_indirect t ~cursor ~group with
       | Some a -> inode.single <- a
       | None -> ());
    if inode.single = -1 then addr = -1
    else begin
      (indirect_entries t inode.single).(j) <- addr;
      access t ~cursor ~addr:inode.single Write_delayed;
      true
    end
  end
  | Some (Ffs_inode.Double (j, k)) -> begin
    (if inode.double = -1 && addr <> -1 then
       match alloc_indirect t ~cursor ~group with
       | Some a -> inode.double <- a
       | None -> ());
    if inode.double = -1 then addr = -1
    else begin
      let level1 = indirect_entries t inode.double in
      (if level1.(j) = -1 && addr <> -1 then
         match alloc_indirect t ~cursor ~group with
         | Some a ->
           level1.(j) <- a;
           access t ~cursor ~addr:inode.double Write_delayed
         | None -> ());
      if level1.(j) = -1 then addr = -1
      else begin
        (indirect_entries t level1.(j)).(k) <- addr;
        access t ~cursor ~addr:level1.(j) Write_delayed;
        true
      end
    end
  end

(* Give the inode a fresh [n]-fragment tail at map index [i], all or
   nothing: when the map needs an indirect block the disk cannot supply,
   the fragments go back before ENOSPC, so none are left without an
   owner. *)
let alloc_tail t ~cursor ~inode ~group i n =
  match alloc_frags t ~cursor ~group n with
  | None -> None
  | Some addr ->
    if bmap_assign t ~cursor ~inode ~group i addr then begin
      inode.tail_frags <- n;
      Some addr
    end
    else begin
      free_frags t ~cursor addr n;
      None
    end

(* Free an inode's fragment tail (if any) and clear its map slot. *)
let drop_tail t ~cursor inode =
  if inode.tail_frags > 0 then begin
    let i = inode.size / t.cfg.fs_block_bytes in
    (match bmap t ~cursor ~inode ~group:0 ~alloc:false i with
    | Some addr ->
      free_frags t ~cursor addr inode.tail_frags;
      ignore (bmap_assign t ~cursor ~inode ~group:0 i (-1))
    | None -> ());
    inode.tail_frags <- 0
  end

(* --- Directories ------------------------------------------------------------ *)

let dir_table t ino =
  match Hashtbl.find_opt t.dir_entries ino with
  | Some table -> table
  | None -> invalid_arg (Printf.sprintf "Ffs: inode %d is not a directory" ino)

let dir_block_list t ino =
  Option.value (Hashtbl.find_opt t.dir_blocks ino) ~default:[]

(* Scanning a directory reads its data blocks: all of them on a miss, half
   (rounded up) on a hit — the expected cost of a linear scan. *)
let charge_dir_scan t ~cursor ~ino ~found =
  let blocks = dir_block_list t ino in
  let k = List.length blocks in
  let to_read = if found then (k + 1) / 2 else k in
  List.iteri (fun i addr -> if i < to_read then access t ~cursor ~addr Read) blocks

let dir_lookup t ~cursor ~ino name =
  let table = dir_table t ino in
  let result = Hashtbl.find_opt table name in
  charge_dir_scan t ~cursor ~ino ~found:(result <> None);
  result

(* Add an entry, growing the directory by a block when it fills. *)
let dir_add t ~cursor ~dir_ino ~name ~child =
  let table = dir_table t dir_ino in
  Hashtbl.replace table name child;
  let needed = Units.ceil_div (Hashtbl.length table) dir_entries_per_block in
  let blocks = dir_block_list t dir_ino in
  let blocks =
    if List.length blocks < needed then begin
      match alloc_block t ~cursor ~group:(group_of_ino t dir_ino) with
      | Some addr ->
        access t ~cursor ~addr Write_fresh;
        addr :: blocks
      | None -> blocks (* full disk: the entry still lives in memory *)
    end
    else blocks
  in
  Hashtbl.replace t.dir_blocks dir_ino blocks;
  (match blocks with
  | addr :: _ -> access t ~cursor ~addr (meta_write_kind t)
  | [] -> ());
  let inode = get_inode t dir_ino in
  inode.size <- Hashtbl.length table * 64;
  touch_inode t ~cursor ~ino:dir_ino (meta_write_kind t)

let dir_remove t ~cursor ~dir_ino ~name =
  let table = dir_table t dir_ino in
  Hashtbl.remove table name;
  (match dir_block_list t dir_ino with
  | addr :: _ -> access t ~cursor ~addr (meta_write_kind t)
  | [] -> ());
  let inode = get_inode t dir_ino in
  inode.size <- Hashtbl.length table * 64;
  touch_inode t ~cursor ~ino:dir_ino (meta_write_kind t)

(* --- Path resolution --------------------------------------------------------- *)

let ( let* ) = Result.bind

(* Walk to the parent directory of the path's last component. *)
let resolve t ~cursor path =
  let* components = Path.parse path in
  match Path.split_last components with
  | None -> Ok `Root
  | Some (parent, leaf) ->
    let rec walk ino = function
      | [] -> Ok ino
      | comp :: rest -> begin
        touch_inode t ~cursor ~ino Read;
        match dir_lookup t ~cursor ~ino comp with
        | Some child when (get_inode t child).kind = `Dir -> walk child rest
        | Some _ -> Error Fs_error.Enotdir
        | None -> Error Fs_error.Enoent
      end
    in
    let* dir_ino = walk root_ino parent in
    touch_inode t ~cursor ~ino:dir_ino Read;
    Ok (`In (dir_ino, leaf, dir_lookup t ~cursor ~ino:dir_ino leaf))

let lookup_kind t ~cursor path ~want =
  match resolve t ~cursor path with
  | Error e -> Error e
  | Ok `Root -> if want = `Dir then Ok root_ino else Error Fs_error.Eisdir
  | Ok (`In (_, _, None)) -> Error Fs_error.Enoent
  | Ok (`In (_, _, Some ino)) ->
    let inode = get_inode t ino in
    if inode.kind = want then Ok ino
    else Error (if want = `File then Fs_error.Eisdir else Fs_error.Enotdir)

(* --- Construction ------------------------------------------------------------ *)

let rec flush_dirty t ~cursor =
  match Buffer_cache.take_dirty t.cache with
  | [] -> ()
  | dirty ->
    (* One elevator sweep: writing back in address order turns the batch's
       seeks into short forward hops. *)
    List.iter (fun addr -> disk_io t ~cursor ~addr ~kind:`Write)
      (List.sort compare dirty);
    (* take_dirty cleared the bits; nothing new can appear meanwhile. *)
    ignore (flush_dirty : t -> cursor:Time.t ref -> unit)

let create_fs ?(config = default_config) ~engine ~disk ~dram () =
  let cfg = config in
  if cfg.fs_block_bytes mod 512 <> 0 || cfg.fs_block_bytes < 512 then
    invalid_arg "Ffs.create_fs: block size must be a positive multiple of 512";
  if cfg.groups < 1 then invalid_arg "Ffs.create_fs: groups < 1";
  let nblocks = Device.Disk.capacity_bytes disk / cfg.fs_block_bytes in
  let nbitmap = Units.ceil_div nblocks (bits_per_block cfg) in
  let nitable = Units.ceil_div cfg.ninodes (inodes_per_block cfg) in
  let data_start = 1 + nbitmap + nitable in
  if data_start >= nblocks then invalid_arg "Ffs.create_fs: disk too small";
  let ndata = nblocks - data_start in
  let t =
    {
      cfg;
      engine;
      disk;
      dram;
      cache =
        Buffer_cache.create ~probe:"fs.buffer_cache" ~capacity_blocks:cfg.cache_blocks;
      ptrs = Ffs_inode.ptrs_per_block ~block_bytes:cfg.fs_block_bytes;
      nblocks;
      data_start;
      itable_start = 1 + nbitmap;
      free = Array.make ndata true;
      free_count = ndata;
      group_hint = Array.init cfg.groups (fun g -> g * ndata / cfg.groups);
      inodes = Array.make cfg.ninodes None;
      ino_hint = 1;
      indirects = Hashtbl.create 64;
      dir_entries = Hashtbl.create 64;
      dir_blocks = Hashtbl.create 64;
      frag_free = Hashtbl.create 64;
    }
  in
  (* Root directory. *)
  t.inodes.(root_ino) <-
    Some { kind = `Dir; size = 0; direct = Array.make Ffs_inode.direct_count (-1);
           single = -1; double = -1; tail_frags = 0 };
  Hashtbl.replace t.dir_entries root_ino (Hashtbl.create 16);
  (* The update daemon pushes delayed writes out periodically. *)
  Engine.schedule_every engine ~every:cfg.update_interval (fun engine ->
      let cursor = ref (Engine.now engine) in
      flush_dirty t ~cursor);
  t

(* --- VFS operations ------------------------------------------------------------ *)

let fresh_inode kind =
  { kind; size = 0; direct = Array.make Ffs_inode.direct_count (-1); single = -1;
    double = -1; tail_frags = 0 }

let make_node t path ~kind =
  let cursor = ref (Engine.now t.engine) in
  match resolve t ~cursor path with
  | Error e -> Error e
  | Ok `Root -> Error Fs_error.Eexist
  | Ok (`In (_, _, Some _)) -> Error Fs_error.Eexist
  | Ok (`In (dir_ino, leaf, None)) -> begin
    match alloc_ino t ~cursor with
    | None -> Error Fs_error.Enospc
    | Some ino ->
      t.inodes.(ino) <- Some (fresh_inode kind);
      if kind = `Dir then begin
        Hashtbl.replace t.dir_entries ino (Hashtbl.create 16);
        Hashtbl.replace t.dir_blocks ino []
      end;
      touch_inode t ~cursor ~ino (meta_write_kind t);
      dir_add t ~cursor ~dir_ino ~name:leaf ~child:ino;
      Ok (Time.diff !cursor (Engine.now t.engine))
  end

let create t path = make_node t path ~kind:`File
let mkdir t path = make_node t path ~kind:`Dir

let write t path ~offset ~bytes =
  if offset < 0 || bytes < 0 then Error Fs_error.Einval
  else begin
    let cursor = ref (Engine.now t.engine) in
    let* ino = lookup_kind t ~cursor path ~want:`File in
    let inode = get_inode t ino in
    let group = group_of_ino t ino in
    let bs = t.cfg.fs_block_bytes in
    let result = ref (Ok ()) in
    if bytes > 0 then begin
      let old_size = inode.size in
      let new_size = max old_size (offset + bytes) in
      let old_tail_idx = old_size / bs in
      let new_full = new_size / bs in
      let new_tail_bytes = new_size mod bs in
      let first = offset / bs and last = (offset + bytes - 1) / bs in
      let enospc () =
        result := Error Fs_error.Enospc;
        raise Exit
      in
      (try
         (* If the file grows past its fragment tail, upgrade the tail to a
            whole block first (the classic FFS fragment reallocation). *)
         if
           inode.tail_frags > 0
           && (old_tail_idx < new_full || (old_tail_idx = new_full && new_tail_bytes = 0))
         then begin
           (match bmap t ~cursor ~inode ~group ~alloc:false old_tail_idx with
           | Some frag_addr ->
             (* Copy the fragments out... *)
             access t ~cursor ~addr:frag_addr Read;
             free_frags t ~cursor frag_addr inode.tail_frags;
             ignore (bmap_assign t ~cursor ~inode ~group old_tail_idx (-1))
           | None -> ());
           inode.tail_frags <- 0;
           (* ...into a freshly allocated whole block. *)
           match bmap t ~cursor ~inode ~group ~alloc:true old_tail_idx with
           | Some addr -> access t ~cursor ~addr Write_fresh
           | None -> enospc ()
         end;
         (* Whole-block region of the write. *)
         let full_last = if new_tail_bytes > 0 then min last (new_full - 1) else last in
         for i = first to full_last do
           let lo = max offset (i * bs) and hi = min (offset + bytes) ((i + 1) * bs) in
           let partial = hi - lo < bs in
           let existed = bmap t ~cursor ~inode ~group ~alloc:false i <> None in
           match bmap t ~cursor ~inode ~group ~alloc:true i with
           | None -> enospc ()
           | Some addr ->
             (* A partial update of existing data must read the block in. *)
             if partial && existed then access t ~cursor ~addr Read;
             access t ~cursor ~addr (if existed then Write_delayed else Write_fresh)
         done;
         (* Fragment tail, when the write reaches it. *)
         if new_tail_bytes > 0 && last = new_full then begin
           let needed = frags_needed t new_tail_bytes in
           if inode.tail_frags > 0 && old_tail_idx = new_full then begin
             (* The tail already exists at this index. *)
             match bmap t ~cursor ~inode ~group ~alloc:false new_full with
             | None -> enospc () (* tail slot vanished: cannot happen *)
             | Some addr ->
               if needed > inode.tail_frags then begin
                 (* Grow into a larger fragment run. *)
                 let old = inode.tail_frags in
                 access t ~cursor ~addr Read;
                 free_frags t ~cursor addr old;
                 inode.tail_frags <- 0;
                 match alloc_tail t ~cursor ~inode ~group new_full needed with
                 | Some naddr -> access t ~cursor ~addr:naddr Write_fresh
                 | None ->
                   (* No room anywhere, so the run just released is still
                      free at [addr] (the map still points there): take it
                      back and keep the old tail. *)
                   take_frags t ~cursor addr old;
                   inode.tail_frags <- old;
                   enospc ()
               end
               else begin
                 access t ~cursor ~addr Read;
                 access t ~cursor ~addr Write_delayed
               end
           end
           else begin
             match bmap t ~cursor ~inode ~group ~alloc:false new_full with
             | Some addr ->
               (* A whole block already covers the tail index: write it. *)
               access t ~cursor ~addr Read;
               access t ~cursor ~addr Write_delayed
             | None -> begin
               match alloc_tail t ~cursor ~inode ~group new_full needed with
               | Some addr -> access t ~cursor ~addr Write_fresh
               | None -> enospc ()
             end
           end
         end
       with Exit -> ());
      inode.size <- new_size;
      touch_inode t ~cursor ~ino Write_delayed
    end;
    match !result with
    | Ok () -> Ok (Time.diff !cursor (Engine.now t.engine))
    | Error e -> Error e
  end

let read t path ~offset ~bytes =
  if offset < 0 || bytes < 0 then Error Fs_error.Einval
  else begin
    let cursor = ref (Engine.now t.engine) in
    let* ino = lookup_kind t ~cursor path ~want:`File in
    let inode = get_inode t ino in
    let bytes = max 0 (min bytes (inode.size - offset)) in
    if bytes > 0 then begin
      let bs = t.cfg.fs_block_bytes in
      let first = offset / bs and last = (offset + bytes - 1) / bs in
      for i = first to last do
        match bmap t ~cursor ~inode ~group:0 ~alloc:false i with
        | Some addr -> access t ~cursor ~addr Read
        | None -> dram_span ~cursor (Device.Dram.read t.dram ~bytes:bs)
      done
    end;
    Ok (Time.diff !cursor (Engine.now t.engine))
  end

(* Release every data and indirect block of an inode past block index
   [keep] (0 = everything). *)
let release_blocks t ~cursor inode ~keep =
  let release_data addr = if addr <> -1 then free_data_block t ~cursor addr in
  (* Direct pointers. *)
  for d = 0 to Ffs_inode.direct_count - 1 do
    if d >= keep then begin
      release_data inode.direct.(d);
      inode.direct.(d) <- -1
    end
  done;
  let release_single addr ~base =
    if addr = -1 then false
    else begin
      access t ~cursor ~addr Read;
      let entries = indirect_entries t addr in
      let any_kept = ref false in
      for j = 0 to t.ptrs - 1 do
        if base + j >= keep then begin
          release_data entries.(j);
          entries.(j) <- -1
        end
        else if entries.(j) <> -1 then any_kept := true
      done;
      if not !any_kept then begin
        free_data_block t ~cursor addr;
        false
      end
      else true
    end
  in
  let base1 = Ffs_inode.direct_count in
  if not (release_single inode.single ~base:base1) then inode.single <- -1;
  if inode.double <> -1 then begin
    access t ~cursor ~addr:inode.double Read;
    let level1 = indirect_entries t inode.double in
    let any_kept = ref false in
    for j = 0 to t.ptrs - 1 do
      let base = base1 + t.ptrs + (j * t.ptrs) in
      if not (release_single level1.(j) ~base) then level1.(j) <- -1;
      if level1.(j) <> -1 then any_kept := true
    done;
    if not !any_kept then begin
      free_data_block t ~cursor inode.double;
      inode.double <- -1
    end
  end

let truncate t path ~size =
  if size < 0 then Error Fs_error.Einval
  else begin
    let cursor = ref (Engine.now t.engine) in
    let* ino = lookup_kind t ~cursor path ~want:`File in
    let inode = get_inode t ino in
    let bs = t.cfg.fs_block_bytes in
    if size < inode.size then begin
      let keep_full = size / bs and new_tail = size mod bs in
      (* Settle the fragment tail before the block walk frees whole
         blocks: fragment blocks are shared and must never go through
         free_data_block while other files use them. *)
      (if inode.tail_frags > 0 then begin
         let ti = inode.size / bs in
         if ti > keep_full || (ti = keep_full && new_tail = 0) then
           drop_tail t ~cursor inode
         else if ti = keep_full then begin
           let needed = frags_needed t new_tail in
           if needed < inode.tail_frags then begin
             match bmap t ~cursor ~inode ~group:0 ~alloc:false ti with
             | Some addr ->
               free_frags t ~cursor addr (inode.tail_frags - needed);
               inode.tail_frags <- needed
             | None -> ()
           end
         end
       end);
      release_blocks t ~cursor inode ~keep:(Units.ceil_div size bs)
    end;
    inode.size <- min inode.size size;
    touch_inode t ~cursor ~ino (meta_write_kind t);
    Ok (Time.diff !cursor (Engine.now t.engine))
  end

(* Is [dst] inside the subtree rooted at [src]? *)
let is_path_prefix ~src ~dst =
  let rec go a b =
    match (a, b) with
    | [], _ -> true
    | x :: a', y :: b' when String.equal x y -> go a' b'
    | _ -> false
  in
  go src dst

let rename t src_path dst_path =
  let cursor = ref (Engine.now t.engine) in
  let* src = Path.parse src_path in
  let* dst = Path.parse dst_path in
  if is_path_prefix ~src ~dst then Error Fs_error.Einval
  else begin
    match resolve t ~cursor src_path with
    | Error e -> Error e
    | Ok `Root -> Error Fs_error.Einval
    | Ok (`In (_, _, None)) -> Error Fs_error.Enoent
    | Ok (`In (src_dir, src_name, Some ino)) -> begin
      match resolve t ~cursor dst_path with
      | Error e -> Error e
      | Ok `Root -> Error Fs_error.Eexist
      | Ok (`In (_, _, Some _)) -> Error Fs_error.Eexist
      | Ok (`In (dst_dir, dst_name, None)) ->
        dir_remove t ~cursor ~dir_ino:src_dir ~name:src_name;
        dir_add t ~cursor ~dir_ino:dst_dir ~name:dst_name ~child:ino;
        Ok (Time.diff !cursor (Engine.now t.engine))
    end
  end

let unlink t path =
  let cursor = ref (Engine.now t.engine) in
  match resolve t ~cursor path with
  | Error e -> Error e
  | Ok `Root -> Error Fs_error.Eisdir
  | Ok (`In (_, _, None)) -> Error Fs_error.Enoent
  | Ok (`In (dir_ino, leaf, Some ino)) ->
    let inode = get_inode t ino in
    if inode.kind = `Dir then Error Fs_error.Eisdir
    else begin
      drop_tail t ~cursor inode;
      release_blocks t ~cursor inode ~keep:0;
      t.inodes.(ino) <- None;
      touch_inode t ~cursor ~ino (meta_write_kind t);
      dir_remove t ~cursor ~dir_ino ~name:leaf;
      Ok (Time.diff !cursor (Engine.now t.engine))
    end

let rmdir t path =
  let cursor = ref (Engine.now t.engine) in
  match resolve t ~cursor path with
  | Error e -> Error e
  | Ok `Root -> Error Fs_error.Einval
  | Ok (`In (_, _, None)) -> Error Fs_error.Enoent
  | Ok (`In (dir_ino, leaf, Some ino)) ->
    let inode = get_inode t ino in
    if inode.kind <> `Dir then Error Fs_error.Enotdir
    else if Hashtbl.length (dir_table t ino) > 0 then Error Fs_error.Enotempty
    else begin
      List.iter (free_data_block t ~cursor) (dir_block_list t ino);
      Hashtbl.remove t.dir_entries ino;
      Hashtbl.remove t.dir_blocks ino;
      t.inodes.(ino) <- None;
      touch_inode t ~cursor ~ino (meta_write_kind t);
      dir_remove t ~cursor ~dir_ino ~name:leaf;
      Ok (Time.diff !cursor (Engine.now t.engine))
    end

let file_size t path =
  let cursor = ref (Engine.now t.engine) in
  let* ino = lookup_kind t ~cursor path ~want:`File in
  Ok (get_inode t ino).size

let exists t path =
  let cursor = ref (Engine.now t.engine) in
  match resolve t ~cursor path with
  | Ok `Root -> true
  | Ok (`In (_, _, Some _)) -> true
  | Ok (`In (_, _, None)) | Error _ -> false

let readdir t path =
  let cursor = ref (Engine.now t.engine) in
  let* ino = lookup_kind t ~cursor path ~want:`Dir in
  charge_dir_scan t ~cursor ~ino ~found:false;
  Ok
    (List.sort String.compare
       (Hashtbl.fold (fun k _ acc -> k :: acc) (dir_table t ino) []))

let sync t =
  let cursor = ref (Engine.now t.engine) in
  flush_dirty t ~cursor;
  Time.diff !cursor (Engine.now t.engine)

let preload t path ~size =
  if size < 0 then Error Fs_error.Einval
  else begin
    let* _ = create t path in
    let rec fill offset =
      if offset >= size then Ok ()
      else begin
        let n = min t.cfg.fs_block_bytes (size - offset) in
        let* _ = write t path ~offset ~bytes:n in
        fill (offset + n)
      end
    in
    fill 0
  end

(* --- Consistency check (fsck) ------------------------------------------------- *)

(* Pure map lookup for the checker: no cache charges, no allocation. *)
let bmap_peek t inode i =
  let entry v = if v = -1 then None else Some v in
  match Ffs_inode.classify ~ptrs:t.ptrs i with
  | None -> None
  | Some (Ffs_inode.Direct d) -> entry inode.direct.(d)
  | Some (Ffs_inode.Single j) ->
    if inode.single = -1 then None else entry (indirect_entries t inode.single).(j)
  | Some (Ffs_inode.Double (j, k)) ->
    if inode.double = -1 then None
    else begin
      let level1 = (indirect_entries t inode.double).(j) in
      if level1 = -1 then None else entry (indirect_entries t level1).(k)
    end

let check t =
  let seen = Hashtbl.create 1024 in
  (* Fragment-carrying blocks are shared between files: tally the
     fragments referenced per address instead of claiming exclusively. *)
  let frag_refs = Hashtbl.create 64 in
  let problem = ref None in
  let claim what addr =
    if addr <> -1 then begin
      if Hashtbl.mem seen addr || Hashtbl.mem frag_refs addr then
        problem := Some (Printf.sprintf "block %d referenced twice (%s)" addr what)
      else if addr < t.data_start || addr >= t.data_start + data_blocks t then
        problem := Some (Printf.sprintf "block %d outside the data region (%s)" addr what)
      else Hashtbl.replace seen addr ()
    end
  in
  let claim_frags what addr n =
    if Hashtbl.mem seen addr then
      problem := Some (Printf.sprintf "block %d used whole and as fragments (%s)" addr what)
    else
      Hashtbl.replace frag_refs addr
        (Option.value (Hashtbl.find_opt frag_refs addr) ~default:0 + n)
  in
  let claim_single ~skip what addr =
    if addr <> -1 then begin
      claim (what ^ " indirect") addr;
      let entries = indirect_entries t addr in
      Array.iteri (fun j a -> if not (skip j) then claim what a) entries
    end
  in
  Array.iteri
    (fun ino inode_opt ->
      match inode_opt with
      | None -> ()
      | Some inode ->
        let what = Printf.sprintf "inode %d" ino in
        (* The fragment tail (if any) is tallied, not claimed. *)
        let tail_idx =
          if inode.tail_frags > 0 then Some (inode.size / t.cfg.fs_block_bytes)
          else None
        in
        (match tail_idx with
        | Some i -> begin
          match bmap_peek t inode i with
          | Some addr -> claim_frags what addr inode.tail_frags
          | None ->
            problem := Some (Printf.sprintf "%s: fragment tail has no address" what)
        end
        | None -> ());
        let is_tail global_index =
          match tail_idx with Some i -> global_index = i | None -> false
        in
        Array.iteri (fun d a -> if not (is_tail d) then claim what a) inode.direct;
        let base1 = Ffs_inode.direct_count in
        claim_single ~skip:(fun j -> is_tail (base1 + j)) what inode.single;
        if inode.double <> -1 then begin
          claim (what ^ " double indirect") inode.double;
          Array.iteri
            (fun j a ->
              claim_single ~skip:(fun k -> is_tail (base1 + t.ptrs + (j * t.ptrs) + k))
                what a)
            (indirect_entries t inode.double)
        end)
    t.inodes;
  Hashtbl.iter
    (fun ino addrs ->
      List.iter (claim (Printf.sprintf "directory %d" ino)) addrs)
    t.dir_blocks;
  match !problem with
  | Some msg -> Error msg
  | None ->
    let used_in_bitmap =
      Array.fold_left (fun acc free -> if free then acc else acc + 1) 0 t.free
    in
    let reachable = Hashtbl.length seen + Hashtbl.length frag_refs in
    if used_in_bitmap <> reachable then
      Error
        (Printf.sprintf "bitmap allocates %d blocks but %d are reachable" used_in_bitmap
           reachable)
    else if t.free_count <> data_blocks t - used_in_bitmap then
      Error
        (Printf.sprintf "free_count %d inconsistent with bitmap (%d used of %d)"
           t.free_count used_in_bitmap (data_blocks t))
    else begin
      (* Fragment accounting: per shared block, referenced + free = total. *)
      let frag_problem =
        Hashtbl.fold
          (fun addr refs acc ->
            match acc with
            | Some _ -> acc
            | None ->
              let free = Option.value (Hashtbl.find_opt t.frag_free addr) ~default:0 in
              if refs + free <> t.cfg.frag_per_block then
                Some
                  (Printf.sprintf
                     "fragment block %d: %d referenced + %d free <> %d" addr refs free
                     t.cfg.frag_per_block)
              else None)
          frag_refs None
      in
      match frag_problem with
      | Some msg -> Error msg
      | None ->
        (* Every frag_free entry must belong to a reachable fragment block. *)
        let orphan =
          Hashtbl.fold
            (fun addr _ acc ->
              match acc with
              | Some _ -> acc
              | None -> if Hashtbl.mem frag_refs addr then None else Some addr)
            t.frag_free None
        in
        match orphan with
        | Some addr -> Error (Printf.sprintf "fragment block %d has no references" addr)
        | None ->
          let stray =
            Hashtbl.fold
              (fun addr () acc ->
                if t.free.(addr - t.data_start) then addr :: acc else acc)
              seen []
          in
          (match stray with
          | [] -> Ok ()
          | addr :: _ ->
            Error (Printf.sprintf "block %d reachable but marked free" addr))
    end
