type config = {
  delta_bytes : int;
  merge_len : int;
}

let default_config = { delta_bytes = 64; merge_len = 4 }

type delta = {
  mutable d_seg : int;
  mutable d_slot : int;
  mutable d_sector : int;
  d_pos : int;
  d_bytes : int;
}

(* [Storage.Array] (the card array) would shadow the stdlib inside this library. *)
module Array = Stdlib.Array

type chain = {
  mutable c_base_seg : int;
  mutable c_base_slot : int;
  (* Position order: the first [c_len] cells are the chain.  Grown by
     doubling; chains are bounded by the merge threshold, so a chain's
     array rarely grows past its first size. *)
  mutable c_deltas : delta array;
  mutable c_len : int;
}

(* The chain table is dense-keyed by block id, like the manager's block
   metadata, with absence a shared sentinel compared by physical identity
   and never mutated: a lookup is one bounds check and one load. *)
let no_chain = { c_base_seg = -1; c_base_slot = -1; c_deltas = [||]; c_len = 0 }

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

let base_seg t ~block = (chain_exn t ~block ~op:"base_seg").c_base_seg
let base_slot t ~block = (chain_exn t ~block ~op:"base_slot").c_base_slot
let chain_length t ~block = (find t block).c_len
let next_pos t ~block = chain_length t ~block

let delta t ~block i =
  let c = chain_exn t ~block ~op:"delta" in
  if i < 0 || i >= c.c_len then
    invalid_arg (Printf.sprintf "Diff_log.delta: block %d has no delta at %d" block i);
  c.c_deltas.(i)

let begin_chain t ~block ~seg ~slot =
  if has_chain t ~block then
    invalid_arg (Printf.sprintf "Diff_log.begin_chain: block %d already chained" block);
  let cap = Array.length t.chains in
  if block >= cap then begin
    let bigger = Array.make (max (block + 1) (2 * cap)) no_chain in
    Array.blit t.chains 0 bigger 0 cap;
    t.chains <- bigger
  end;
  t.chains.(block) <-
    { c_base_seg = seg; c_base_slot = slot; c_deltas = [||]; c_len = 0 };
  t.nchains <- t.nchains + 1

let push_delta t ~block ~pos ~seg ~slot ~sector ~bytes =
  let c = chain_exn t ~block ~op:"push_delta" in
  if pos <> c.c_len then
    invalid_arg
      (Printf.sprintf "Diff_log.push_delta: block %d position %d, expected %d" block
         pos c.c_len);
  let d = { d_seg = seg; d_slot = slot; d_sector = sector; d_pos = pos; d_bytes = bytes } in
  if c.c_len = Array.length c.c_deltas then begin
    let bigger = Array.make (max 4 (2 * c.c_len)) d in
    Array.blit c.c_deltas 0 bigger 0 c.c_len;
    c.c_deltas <- bigger
  end;
  c.c_deltas.(c.c_len) <- d;
  c.c_len <- c.c_len + 1

let should_merge t ~block =
  let c = find t block in
  c != no_chain && c.c_len >= t.cfg.merge_len

let rebase t ~block ~seg ~slot =
  let c = chain_exn t ~block ~op:"rebase" in
  c.c_base_seg <- seg;
  c.c_base_slot <- slot

(* Positions are dense from 0, so the delta at [pos] is cell [pos]. *)
let relocate_delta t ~block ~pos ~seg ~slot ~sector =
  let c = chain_exn t ~block ~op:"relocate_delta" in
  if pos < 0 || pos >= c.c_len then
    invalid_arg
      (Printf.sprintf "Diff_log.relocate_delta: block %d has no delta at %d" block pos);
  let d = c.c_deltas.(pos) in
  d.d_seg <- seg;
  d.d_slot <- slot;
  d.d_sector <- sector

let drop t ~block =
  if has_chain t ~block then begin
    t.chains.(block) <- no_chain;
    t.nchains <- t.nchains - 1
  end

let iter_chains t ~f =
  Array.iteri (fun block c -> if c != no_chain then f ~block ~ndeltas:c.c_len) t.chains

let note_delta_programmed t ~bytes =
  t.deltas_flushed <- t.deltas_flushed + 1;
  t.delta_bytes_flushed <- t.delta_bytes_flushed + bytes

let note_merge t = t.merges <- t.merges + 1
let note_reassembly t = t.reassembled_reads <- t.reassembled_reads + 1

type stats = {
  chains : int;
  chained_deltas : int;
  deltas_flushed : int;
  delta_bytes_flushed : int;
  merges : int;
  reassembled_reads : int;
}

let stats (t : t) =
  let chained = ref 0 in
  iter_chains t ~f:(fun ~block:_ ~ndeltas -> chained := !chained + ndeltas);
  {
    chains = t.nchains;
    chained_deltas = !chained;
    deltas_flushed = t.deltas_flushed;
    delta_bytes_flushed = t.delta_bytes_flushed;
    merges = t.merges;
    reassembled_reads = t.reassembled_reads;
  }

let add_stats a b =
  {
    chains = a.chains + b.chains;
    chained_deltas = a.chained_deltas + b.chained_deltas;
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
