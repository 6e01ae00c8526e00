type config = {
  delta_bytes : int;
  merge_len : int;
}

let default_config = { delta_bytes = 64; merge_len = 4 }

(* [Storage.Array] (the card array) would shadow the stdlib inside this library. *)
module Array = Stdlib.Array

(* The sectors of a chain's delta records in position order: the first
   [len] cells.  Grown by doubling; chains are bounded by the merge
   threshold, so a chain's array rarely grows past its first size. *)
type chain = { mutable sectors : int array; mutable len : int }

(* The chain table is dense-keyed by block id, like the manager's block
   table, with absence a shared sentinel compared by physical identity
   and never mutated: a lookup is one bounds check and one load. *)
let no_chain = { sectors = [||]; len = 0 }

type t = {
  cfg : config;
  mutable chains : chain array;  (* indexed by block id *)
  mutable nchains : int;
  mutable deltas_flushed : int;
  mutable delta_bytes_flushed : int;
  mutable merges : int;
  mutable reassembled_reads : int;
}

let create cfg =
  if cfg.delta_bytes < 1 then invalid_arg "Diff_log.create: delta_bytes < 1";
  if cfg.merge_len < 1 then invalid_arg "Diff_log.create: merge_len < 1";
  {
    cfg;
    chains = Array.make 1024 no_chain;
    nchains = 0;
    deltas_flushed = 0;
    delta_bytes_flushed = 0;
    merges = 0;
    reassembled_reads = 0;
  }

let config t = t.cfg

let find t block =
  if block >= 0 && block < Array.length t.chains then t.chains.(block) else no_chain

let has_chain t ~block = find t block != no_chain

let chain_exn t ~block ~op =
  let c = find t block in
  if c != no_chain then c
  else invalid_arg (Printf.sprintf "Diff_log.%s: block %d has no chain" op block)

let chain_length t ~block = (find t block).len

let delta_sector t ~block i =
  let c = chain_exn t ~block ~op:"delta_sector" in
  if i < 0 || i >= c.len then
    invalid_arg (Printf.sprintf "Diff_log.delta_sector: block %d has no delta at %d" block i);
  c.sectors.(i)

(* Top-level, so the cleaner's lookup builds no closure. *)
let rec index_of sectors len sector i =
  if i >= len then -1
  else if sectors.(i) = sector then i
  else index_of sectors len sector (i + 1)

let delta_pos t ~block ~sector =
  let c = chain_exn t ~block ~op:"delta_pos" in
  let i = index_of c.sectors c.len sector 0 in
  if i < 0 then
    invalid_arg
      (Printf.sprintf "Diff_log.delta_pos: block %d has no delta in sector %d" block sector);
  i

let begin_chain t ~block =
  if has_chain t ~block then
    invalid_arg (Printf.sprintf "Diff_log.begin_chain: block %d already chained" block);
  let cap = Array.length t.chains in
  if block >= cap then begin
    let bigger = Array.make (max (block + 1) (2 * cap)) no_chain in
    Array.blit t.chains 0 bigger 0 cap;
    t.chains <- bigger
  end;
  t.chains.(block) <- { sectors = [||]; len = 0 };
  t.nchains <- t.nchains + 1

let push_delta t ~block ~pos ~sector =
  let c = chain_exn t ~block ~op:"push_delta" in
  if pos <> c.len then
    invalid_arg
      (Printf.sprintf "Diff_log.push_delta: block %d position %d, expected %d" block pos
         c.len);
  if c.len = Array.length c.sectors then begin
    let bigger = Array.make (max 4 (2 * c.len)) 0 in
    Array.blit c.sectors 0 bigger 0 c.len;
    c.sectors <- bigger
  end;
  c.sectors.(c.len) <- sector;
  c.len <- c.len + 1

let should_merge t ~block =
  let c = find t block in
  c != no_chain && c.len >= t.cfg.merge_len

let relocate_delta t ~block ~pos ~sector =
  let c = chain_exn t ~block ~op:"relocate_delta" in
  if pos < 0 || pos >= c.len then
    invalid_arg
      (Printf.sprintf "Diff_log.relocate_delta: block %d has no delta at %d" block pos);
  c.sectors.(pos) <- sector

let drop t ~block =
  if has_chain t ~block then begin
    t.chains.(block) <- no_chain;
    t.nchains <- t.nchains - 1
  end

let note_delta_programmed t =
  t.deltas_flushed <- t.deltas_flushed + 1;
  t.delta_bytes_flushed <- t.delta_bytes_flushed + t.cfg.delta_bytes

let note_merge t = t.merges <- t.merges + 1
let note_reassembly t = t.reassembled_reads <- t.reassembled_reads + 1

type stats = {
  chains : int;
  deltas_flushed : int;
  delta_bytes_flushed : int;
  merges : int;
  reassembled_reads : int;
}

let stats (t : t) =
  {
    chains = t.nchains;
    deltas_flushed = t.deltas_flushed;
    delta_bytes_flushed = t.delta_bytes_flushed;
    merges = t.merges;
    reassembled_reads = t.reassembled_reads;
  }

let add_stats a b =
  {
    chains = a.chains + b.chains;
    deltas_flushed = a.deltas_flushed + b.deltas_flushed;
    delta_bytes_flushed = a.delta_bytes_flushed + b.delta_bytes_flushed;
    merges = a.merges + b.merges;
    reassembled_reads = a.reassembled_reads + b.reassembled_reads;
  }

let reset_counters (t : t) =
  t.deltas_flushed <- 0;
  t.delta_bytes_flushed <- 0;
  t.merges <- 0;
  t.reassembled_reads <- 0
