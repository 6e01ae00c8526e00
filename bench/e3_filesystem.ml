(* E3 — Section 3.1: the memory-resident file system against the
   conventional disk file system.
   Shape to reproduce: metadata operations drop from milliseconds (seek +
   synchronous metadata writes) to microseconds (DRAM accesses); data
   operations win by orders of magnitude except where the disk's buffer
   cache already absorbed them; sequential-vs-random makes no difference
   to memfs (no clustering to exploit, no seeks to avoid) while it is the
   dominant effect on disk. *)
open Sim

let microbench_table () =
  (* Directly exercise both file systems with controlled patterns. *)
  let engine_m = Engine.create () in
  let flash =
    Device.Flash.create (Device.Flash.config ~nbanks:4 ~size_bytes:(8 * Units.mib) ())
  in
  let dram_m = Device.Dram.create ~size_bytes:(4 * Units.mib) ~battery_backed:true () in
  let manager = Storage.Manager.create Storage.Manager.default_config ~engine:engine_m ~flash ~dram:dram_m in
  let memfs = Fs.Memfs.create_fs ~manager () in

  let engine_f = Engine.create () in
  let disk = Device.Disk.create ~rng:(Rng.create ~seed:31) () in
  let dram_f = Device.Dram.create ~size_bytes:(4 * Units.mib) ~battery_backed:true () in
  let ffs = Fs.Ffs.create_fs ~engine:engine_f ~disk ~dram:dram_f () in

  let ok = function
    | Ok v -> v
    | Error e -> Fmt.failwith "e3 microbench: %a" Fs.Fs_error.pp e
  in
  (* Pre-populate a 1MB file on each, then settle. *)
  ignore (ok (Fs.Memfs.create memfs "/seq"));
  ignore (ok (Fs.Memfs.write memfs "/seq" ~offset:0 ~bytes:Units.mib));
  ignore (Fs.Memfs.sync memfs);
  ignore (ok (Fs.Ffs.create ffs "/seq"));
  ignore (ok (Fs.Ffs.write ffs "/seq" ~offset:0 ~bytes:Units.mib));
  ignore (Fs.Ffs.sync ffs);
  Engine.run_until engine_m (Time.add (Engine.now engine_m) (Time.span_s 120.0));
  Engine.run_until engine_f (Time.add (Engine.now engine_f) (Time.span_s 120.0));

  (* Advance the owning engine past each operation so successive ops do not
     queue behind each other's device time — we measure isolated latency. *)
  let mean_on engine n f =
    let s = Stat.Summary.create () in
    for i = 0 to n - 1 do
      let span = f i in
      Stat.Summary.observe s (Time.span_to_us span);
      Engine.run_until engine
        (Time.add (Engine.now engine) (Time.span_add span (Time.span_ms 10.0)))
    done;
    Stat.Summary.mean s
  in
  let rng = Rng.create ~seed:33 in
  let random_offsets = Array.init 200 (fun _ -> Rng.int rng (Units.mib - 4096) / 512 * 512) in
  (* Sequence matters (creates before deletes): build each row in order. *)
  let create_m = mean_on engine_m 100 (fun i -> ok (Fs.Memfs.create memfs (Printf.sprintf "/m%d" i))) in
  let create_f = mean_on engine_f 100 (fun i -> ok (Fs.Ffs.create ffs (Printf.sprintf "/m%d" i))) in
  let seq_read_m =
    mean_on engine_m 200 (fun i ->
        ok (Fs.Memfs.read memfs "/seq" ~offset:(i * 4096 mod (Units.mib - 4096)) ~bytes:4096))
  in
  let seq_read_f =
    mean_on engine_f 200 (fun i ->
        ok (Fs.Ffs.read ffs "/seq" ~offset:(i * 4096 mod (Units.mib - 4096)) ~bytes:4096))
  in
  let rand_read_m =
    mean_on engine_m 200 (fun i -> ok (Fs.Memfs.read memfs "/seq" ~offset:random_offsets.(i) ~bytes:4096))
  in
  let rand_read_f =
    mean_on engine_f 200 (fun i -> ok (Fs.Ffs.read ffs "/seq" ~offset:random_offsets.(i) ~bytes:4096))
  in
  let overwrite_m =
    mean_on engine_m 200 (fun i -> ok (Fs.Memfs.write memfs "/seq" ~offset:random_offsets.(i) ~bytes:4096))
  in
  let overwrite_f =
    mean_on engine_f 200 (fun i -> ok (Fs.Ffs.write ffs "/seq" ~offset:random_offsets.(i) ~bytes:4096))
  in
  let delete_m = mean_on engine_m 100 (fun i -> ok (Fs.Memfs.unlink memfs (Printf.sprintf "/m%d" i))) in
  let delete_f = mean_on engine_f 100 (fun i -> ok (Fs.Ffs.unlink ffs (Printf.sprintf "/m%d" i))) in
  let rows =
    [
      ("create (empty file)", create_m, create_f);
      ("sequential read, 4KB", seq_read_m, seq_read_f);
      ("random read, 4KB", rand_read_m, rand_read_f);
      ("random overwrite, 4KB", overwrite_m, overwrite_f);
      ("delete", delete_m, delete_f);
    ]
  in
  let t =
    Table.create ~title:"file-system microbenchmarks (mean latency, us)"
      ~columns:
        [
          ("operation", Table.Left);
          ("memfs (DRAM+flash)", Table.Right);
          ("ffs (disk)", Table.Right);
          ("speedup", Table.Right);
        ]
  in
  List.iter
    (fun (name, m, f) ->
      Table.add_row t
        [ name; Common.cell_us m; Common.cell_us f; Printf.sprintf "%.0fx" (f /. m) ])
    rows;
  Table.print t;
  (* The clustering claim: on memfs sequential and random read identically. *)
  let seq_m = List.nth rows 1 and rand_m = List.nth rows 2 in
  let second (_, m, _) = m and third (_, _, f) = f in
  Common.note "memfs random/sequential read ratio: %.2f (clustering irrelevant in memory)"
    (second rand_m /. second seq_m);
  Common.note "ffs random/sequential read ratio: %.2f (seeks dominate on disk)"
    (third rand_m /. third seq_m)

let trace_table () =
  let duration = Common.minutes 10.0 in
  (* Each replay's probe snapshot (preload resets the registry, so it holds
     exactly that run) supplies the buffer-cache accounting below. *)
  let run cfg =
    let m, r =
      Common.run_machine ~cfg ~profile:Trace.Workloads.engineering ~duration ()
    in
    (m, r, Probe.snapshot ())
  in
  let solid_m, solid, solid_snap = run (Ssmc.Config.solid_state ()) in
  let conv_m, conv, conv_snap = run (Ssmc.Config.conventional ()) in
  let t =
    Table.create ~title:"engineering workload, whole-machine trace replay"
      ~columns:
        [
          ("metric", Table.Left);
          ("solid-state (memfs)", Table.Right);
          ("conventional (ffs)", Table.Right);
        ]
  in
  let frow name f = Table.add_row t [ name; f solid; f conv ] in
  frow "ops applied" (fun (r : Ssmc.Machine.result) -> Table.cell_i r.Ssmc.Machine.ops_applied);
  frow "read mean (us)" (fun r -> Common.cell_us (Stat.Summary.mean r.Ssmc.Machine.read_latency));
  frow "read p50 (us)" (fun r -> Common.cell_us (Common.p50 r.Ssmc.Machine.read_hist_us));
  frow "read p99 (us)" (fun r -> Common.cell_us (Common.p99 r.Ssmc.Machine.read_hist_us));
  frow "write mean (us)" (fun r -> Common.cell_us (Stat.Summary.mean r.Ssmc.Machine.write_latency));
  frow "write p50 (us)" (fun r -> Common.cell_us (Common.p50 r.Ssmc.Machine.write_hist_us));
  frow "write p99 (us)" (fun r -> Common.cell_us (Common.p99 r.Ssmc.Machine.write_hist_us));
  frow "metadata mean (us)" (fun r -> Common.cell_us (Stat.Summary.mean r.Ssmc.Machine.meta_latency));
  frow "foreground busy" (fun r -> Table.cell_span r.Ssmc.Machine.busy);
  frow "storage energy (J)" (fun r -> Table.cell_f r.Ssmc.Machine.energy_j);
  (* Section 3.1's space argument: the conventional machine duplicates
     stable data in a DRAM cache; the memory-resident system holds one
     copy (its buffer contents ARE the primary copy, not a duplicate). *)
  let cache_copy machine =
    match Ssmc.Machine.ffs machine with
    | Some ffs ->
      Table.cell_bytes
        (Storage.Buffer_cache.size (Fs.Ffs.cache ffs)
        * (Fs.Ffs.config ffs).Fs.Ffs.fs_block_bytes)
    | None -> "0B"
  in
  Table.add_row t
    [ "DRAM duplicating stable data"; cache_copy solid_m; cache_copy conv_m ];
  (* The disk FS pays for its duplicate copy in misses and write-backs; the
     memory-resident FS has no cache to hit or miss at all. *)
  let cache_row name key =
    Table.add_row t
      [
        name;
        Table.cell_i (Probe.Snapshot.counter_value solid_snap key);
        Table.cell_i (Probe.Snapshot.counter_value conv_snap key);
      ]
  in
  cache_row "buffer-cache hits" "fs.buffer_cache.hits";
  cache_row "buffer-cache misses" "fs.buffer_cache.misses";
  cache_row "buffer-cache write-backs" "fs.buffer_cache.writebacks";
  Table.print t;
  let hits = Probe.Snapshot.counter_value conv_snap "fs.buffer_cache.hits" in
  let misses = Probe.Snapshot.counter_value conv_snap "fs.buffer_cache.misses" in
  Common.put_metric "e3_cache_hits_conv" (float_of_int hits);
  Common.put_metric "e3_cache_misses_conv" (float_of_int misses);
  Common.put_metric "e3_cache_hit_rate_conv"
    (if hits + misses = 0 then 0.0
     else float_of_int hits /. float_of_int (hits + misses));
  Common.note "conventional buffer cache: %d hits / %d misses (%.1f%% hit rate)"
    hits misses
    (if hits + misses = 0 then 0.0
     else 100.0 *. float_of_int hits /. float_of_int (hits + misses))

(* Section 3.1 promises improved space utilization: fine-grained
   allocation (512B blocks) against the disk FS's 4KB blocks, measured as
   allocated-vs-logical bytes for a population of small files. *)
let space_table () =
  let sizes = [ 300; 700; 1500; 3000; 5000; 12_000 ] in
  let files_per_size = 40 in
  (* memfs side. *)
  let engine_m = Engine.create () in
  let flash = Device.Flash.create (Device.Flash.config ~nbanks:4 ~size_bytes:(8 * Units.mib) ()) in
  let dram_m = Device.Dram.create ~size_bytes:(4 * Units.mib) ~battery_backed:true () in
  let manager = Storage.Manager.create Storage.Manager.default_config ~engine:engine_m ~flash ~dram:dram_m in
  let memfs = Fs.Memfs.create_fs ~manager () in
  (* ffs side. *)
  let engine_f = Engine.create () in
  let disk = Device.Disk.create ~rng:(Rng.create ~seed:35) () in
  let dram_f = Device.Dram.create ~size_bytes:(4 * Units.mib) ~battery_backed:true () in
  let ffs = Fs.Ffs.create_fs ~engine:engine_f ~disk ~dram:dram_f () in
  let logical = ref 0 in
  List.iteri
    (fun si size ->
      for i = 0 to files_per_size - 1 do
        let path = Printf.sprintf "/s%d-%d" si i in
        logical := !logical + size;
        (match Fs.Memfs.create memfs path with Ok _ -> () | Error _ -> ());
        (match Fs.Memfs.write memfs path ~offset:0 ~bytes:size with Ok _ -> () | Error _ -> ());
        (match Fs.Ffs.create ffs path with Ok _ -> () | Error _ -> ());
        match Fs.Ffs.write ffs path ~offset:0 ~bytes:size with Ok _ -> () | Error _ -> ()
      done)
    sizes;
  ignore (Fs.Memfs.sync memfs);
  let mem_alloc =
    (Storage.Manager.stats manager).Storage.Manager.live_blocks
    * Storage.Manager.block_bytes manager
  in
  let ffs_alloc = Fs.Ffs.used_bytes ffs in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "space for %d small files (%s of logical data)"
           (List.length sizes * files_per_size)
           (Table.cell_bytes !logical))
      ~columns:
        [
          ("file system", Table.Left);
          ("allocated", Table.Right);
          ("overhead", Table.Right);
        ]
  in
  Table.add_row t
    [
      "memfs (512B blocks)";
      Table.cell_bytes mem_alloc;
      Table.cell_pct (float_of_int (mem_alloc - !logical) /. float_of_int !logical);
    ];
  Table.add_row t
    [
      "ffs (4KB blocks, 1KB fragments)";
      Table.cell_bytes ffs_alloc;
      Table.cell_pct (float_of_int (ffs_alloc - !logical) /. float_of_int !logical);
    ];
  (* And what classic whole-block allocation would have cost. *)
  let engine_w = Engine.create () in
  let disk_w = Device.Disk.create ~rng:(Rng.create ~seed:36) () in
  let dram_w = Device.Dram.create ~size_bytes:(4 * Units.mib) ~battery_backed:true () in
  let ffs_w =
    Fs.Ffs.create_fs
      ~config:{ Fs.Ffs.default_config with Fs.Ffs.frag_per_block = 1 }
      ~engine:engine_w ~disk:disk_w ~dram:dram_w ()
  in
  List.iteri
    (fun si size ->
      for i = 0 to files_per_size - 1 do
        let path = Printf.sprintf "/s%d-%d" si i in
        (match Fs.Ffs.create ffs_w path with Ok _ -> () | Error _ -> ());
        match Fs.Ffs.write ffs_w path ~offset:0 ~bytes:size with
        | Ok _ -> ()
        | Error _ -> ()
      done)
    sizes;
  let walloc = Fs.Ffs.used_bytes ffs_w in
  Table.add_row t
    [
      "ffs (4KB blocks, no fragments)";
      Table.cell_bytes walloc;
      Table.cell_pct (float_of_int (walloc - !logical) /. float_of_int !logical);
    ];
  Table.print t;
  Common.note
    "fine-grained flash allocation wastes a fraction of the disk FS's block rounding —      part of Section 3.1's 'improve space utilization'."

let run () =
  Common.section "E3: memory-resident vs disk file system (Section 3.1)";
  microbench_table ();
  space_table ();
  trace_table ()
