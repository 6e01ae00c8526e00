(* Storage-manager host costs: the indexed decision path, the write
   buffer's deadline refreshes, array drains and the front cache.

   - Bechamel throughput of the steady-state rewrite+clean loop at 64, 512,
     and 4096 segments — the indexed decisions should keep it near-flat in
     the segment count;
   - allocation churn (GC minor words per write) of the same loop;
   - deadline-refresh churn, array drain cost and front-cache hot paths
     (see each table). *)

open Bechamel
open Toolkit
open Sim

(* 4 banks, 8-sector segments, 512B sectors: [nsegments] scales the flash
   size, everything else stays fixed.  Write-through buffering so every
   rewrite exercises acquire (and, at steady state, cleaning). *)
let make_manager ~nsegments =
  let engine = Engine.create () in
  let flash =
    Device.Flash.create
      (Device.Flash.config ~nbanks:4 ~size_bytes:(nsegments * 8 * 512) ())
  in
  let dram = Device.Dram.create ~size_bytes:(4 * Units.mib) ~battery_backed:true () in
  let cfg =
    {
      Storage.Manager.default_config with
      Storage.Manager.segment_sectors = 8;
      buffer =
        {
          Storage.Write_buffer.capacity_blocks = 0;
          writeback_delay = Time.span_s 1.0;
          refresh_on_rewrite = false;
        };
    }
  in
  (engine, Storage.Manager.create cfg ~engine ~flash ~dram)

(* A filled manager plus a deterministic rewrite stream: 85% of capacity
   live, rewrites spread over every block by an LCG so segments age into
   the mixed-utilization regime the cleaner actually faces. *)
let rewrite_state ~nsegments =
  let engine, manager = make_manager ~nsegments in
  let live = 85 * Storage.Manager.capacity_blocks manager / 100 in
  let blocks = Array.init live (fun _ -> Storage.Manager.alloc manager) in
  Array.iter (fun b -> Storage.Manager.load_cold manager b) blocks;
  Engine.run_until engine (Time.add (Engine.now engine) (Time.span_s 1.0));
  let state = ref 12345 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    blocks.(!state mod live)
  in
  (engine, manager, next)

let rewrites_per_run = 64

let test_name nsegments =
  Printf.sprintf "storage: %d rewrites, %d segs" rewrites_per_run nsegments

let throughput_test ~nsegments =
  let engine, manager, next = rewrite_state ~nsegments in
  Test.make ~name:(test_name nsegments)
    (Staged.stage (fun () ->
         for _ = 1 to rewrites_per_run do
           ignore (Storage.Manager.write_block manager (next ()))
         done;
         Engine.run_until engine (Time.add (Engine.now engine) (Time.span_us 500.0))))

let sizes = [ 64; 512; 4096 ]

let throughput_table () =
  let tests = List.map (fun nsegments -> throughput_test ~nsegments) sizes in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Bechamel.Time.second 0.25) ~stabilize:true ()
  in
  let grouped = Test.make_grouped ~name:"storage" ~fmt:"%s %s" tests in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let estimate_of name =
    Hashtbl.fold
      (fun key ols acc ->
        (* Keys are "storage <test name>". *)
        let suffix_matches =
          String.length key >= String.length name
          && String.sub key (String.length key - String.length name) (String.length name)
             = name
        in
        if suffix_matches then
          match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> acc
        else acc)
      results nan
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "rewrite+clean cost vs segment count (%d rewrites per run)"
           rewrites_per_run)
      ~columns:[ ("segments", Table.Right); ("ns/run", Table.Right) ]
  in
  List.iter
    (fun nsegments ->
      let ns = estimate_of (test_name nsegments) in
      Common.put_metric (Printf.sprintf "storage_ns_indexed_%d" nsegments) ns;
      Table.add_row t [ Table.cell_i nsegments; Printf.sprintf "%.0f" ns ])
    sizes;
  Table.print t;
  Common.note
    "the indexed decisions should keep the cost near-flat from 512 to 4096 segments."

(* Allocation churn of the decision path: minor-heap words per client
   write.  The index walk allocates only balanced-tree nodes on state
   transitions. *)
let allocation_table () =
  let writes = 4000 in
  let _engine, manager, next = rewrite_state ~nsegments:512 in
  let before = Gc.minor_words () in
  for _ = 1 to writes do
    ignore (Storage.Manager.write_block manager (next ()))
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int writes in
  let t =
    Table.create ~title:"allocation churn (512 segments, write-through rewrites)"
      ~columns:[ ("minor words / write", Table.Right) ]
  in
  Common.put_metric "storage_words_per_write_indexed" words;
  Table.add_row t [ Printf.sprintf "%.0f" words ];
  Table.print t

(* Deadline-refresh churn: a hot working set rewritten in place, every
   rewrite refreshing its writeback deadline.  Each refresh enqueues a
   fresh timing-wheel entry and strands the old one; compaction must keep
   the queue within a constant factor of the live population (it used to
   grow by one stale entry per rewrite), and the amortized allocation per
   write must stay flat. *)
let refresh_churn_table () =
  let writes = 20_000 in
  let hot = 64 in
  let engine = Engine.create () in
  let flash =
    Device.Flash.create (Device.Flash.config ~nbanks:4 ~size_bytes:(4 * Units.mib) ())
  in
  let dram = Device.Dram.create ~size_bytes:(8 * Units.mib) ~battery_backed:true () in
  let cfg =
    {
      Storage.Manager.default_config with
      Storage.Manager.segment_sectors = 8;
      buffer =
        {
          Storage.Write_buffer.capacity_blocks = 256;
          writeback_delay = Time.span_s 600.0;
          refresh_on_rewrite = true;
        };
    }
  in
  let manager = Storage.Manager.create cfg ~engine ~flash ~dram in
  let blocks = Array.init hot (fun _ -> Storage.Manager.alloc manager) in
  Array.iter (fun b -> ignore (Storage.Manager.write_block manager b)) blocks;
  let before = Gc.minor_words () in
  for i = 1 to writes do
    ignore (Storage.Manager.write_block manager blocks.(i mod hot));
    if i mod 256 = 0 then
      Engine.run_until engine (Time.add (Engine.now engine) (Time.span_ms 1.0))
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int writes in
  let pending = Storage.Manager.buffer_pending_entries manager in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "deadline-refresh churn (%d rewrites over %d hot blocks)"
           writes hot)
      ~columns:
        [
          ("minor words / write", Table.Right);
          ("queue entries", Table.Right);
          ("dirty blocks", Table.Right);
        ]
  in
  Common.put_metric "storage_words_per_refresh_write" words;
  Common.put_metric "storage_refresh_queue_entries" (float_of_int pending);
  Table.add_row t
    [ Printf.sprintf "%.0f" words; Table.cell_i pending; Table.cell_i hot ];
  Table.print t;
  Common.note
    "compaction keeps the writeback queue within a small constant of the dirty \
     population; without it the queue holds one stale entry per rewrite."

(* Flush batching through the card array: a drain issues one contiguous
   group per destination card (never ping-ponging sector-by-sector across
   cards), so the per-flush allocation cost should stay flat in the card
   count — each card drains its own buffer once. *)
let array_flush_table () =
  let cycles = 50 in
  let writes_per_cycle = 64 in
  let words_per_flush ncards =
    let engine = Engine.create () in
    let flashes =
      Stdlib.Array.init ncards (fun _ ->
          Device.Flash.create
            (Device.Flash.config ~nbanks:4 ~size_bytes:(4 * Units.mib) ()))
    in
    let dram =
      Device.Dram.create ~size_bytes:(8 * Units.mib) ~battery_backed:true ()
    in
    let cfg =
      {
        Storage.Manager.default_config with
        Storage.Manager.segment_sectors = 8;
        buffer =
          {
            Storage.Write_buffer.capacity_blocks = 1024;
            writeback_delay = Time.span_s 60.0;
            refresh_on_rewrite = false;
          };
      }
    in
    let store =
      if ncards = 1 then
        Storage.Store.Single (Storage.Manager.create cfg ~engine ~flash:flashes.(0) ~dram)
      else
        Storage.Store.Striped
          (Storage.Array.create
             ~striping:(Storage.Striping.Round_robin { strip_blocks = 4 })
             cfg ~engine ~flashes ~dram)
    in
    let blocks =
      Array.init (cycles * writes_per_cycle) (fun _ -> Storage.Store.alloc store)
    in
    let cursor = ref 0 in
    let words = ref 0.0 in
    for _ = 1 to cycles do
      for _ = 1 to writes_per_cycle do
        ignore (Storage.Store.write_block store blocks.(!cursor));
        incr cursor
      done;
      let before = Gc.minor_words () in
      ignore (Storage.Store.flush_all store);
      words := !words +. (Gc.minor_words () -. before);
      Engine.run_until engine (Time.add (Engine.now engine) (Time.span_s 1.0))
    done;
    !words /. float_of_int cycles
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "array drain cost (%d fresh blocks per flush)" writes_per_cycle)
      ~columns:[ ("cards", Table.Right); ("minor words / flush", Table.Right) ]
  in
  List.iter
    (fun ncards ->
      let words = words_per_flush ncards in
      Common.put_metric (Printf.sprintf "storage_words_per_flush_%dcards" ncards) words;
      Table.add_row t [ Table.cell_i ncards; Printf.sprintf "%.0f" words ])
    [ 1; 2; 4 ];
  Table.print t;
  Common.note
    "grouped per-card drains keep flush allocation flat in the card count; the \
     work itself splits across cards."

(* The front cache on the array's hot paths.  Every [write_block] and
   [free_block] forgets the written handle ([Buffer_cache.forget]: one
   lookup and one remove) and every cached read is a [find]; a miss read
   re-inserts the handle as a fresh node.  One cycle per measured op
   exercises all three paths: forget a resident handle, re-insert it on
   the miss read, then hit it. *)
let front_cache_table () =
  let ops = 4000 in
  let nblocks = 128 in
  let engine = Engine.create () in
  let flashes =
    Stdlib.Array.init 2 (fun _ ->
        Device.Flash.create (Device.Flash.config ~nbanks:4 ~size_bytes:(4 * Units.mib) ()))
  in
  let dram = Device.Dram.create ~size_bytes:(8 * Units.mib) ~battery_backed:true () in
  let cfg =
    {
      Storage.Manager.default_config with
      Storage.Manager.segment_sectors = 8;
      buffer =
        {
          Storage.Write_buffer.capacity_blocks = 1024;
          writeback_delay = Time.span_s 60.0;
          refresh_on_rewrite = false;
        };
    }
  in
  let a =
    Storage.Array.create ~front_cache_blocks:256
      ~striping:(Storage.Striping.Round_robin { strip_blocks = 4 })
      cfg ~engine ~flashes ~dram
  in
  let blocks = Stdlib.Array.init nblocks (fun _ -> Storage.Array.alloc a) in
  Stdlib.Array.iter (Storage.Array.load_cold a) blocks;
  Engine.run_until engine (Time.add (Engine.now engine) (Time.span_s 60.0));
  Stdlib.Array.iter (fun b -> ignore (Storage.Array.read_block a b)) blocks;
  let before = Gc.minor_words () in
  for i = 1 to ops do
    let b = blocks.(i mod nblocks) in
    ignore (Storage.Array.write_block a b);
    ignore (Storage.Array.read_block a b);
    ignore (Storage.Array.read_block a b)
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int ops in
  let t =
    Table.create
      ~title:"front-cache hot paths (invalidate + insert + hit per cycle)"
      ~columns:[ ("cache blocks", Table.Right); ("minor words / cycle", Table.Right) ]
  in
  Common.put_metric "storage_words_per_front_cycle" words;
  Table.add_row t [ Table.cell_i 256; Printf.sprintf "%.0f" words ];
  Table.print t;
  Common.note
    "the front cache is Storage.Buffer_cache used clean; the cycle's budget is \
     dominated by the write and miss-read themselves."

let run () =
  Common.section "storage manager: decision path, write buffer and array host costs";
  throughput_table ();
  allocation_table ();
  refresh_churn_table ();
  array_flush_table ();
  front_cache_table ()
