(* Cross-module integration tests: whole machines under failure and load,
   determinism end-to-end, and logical equivalence of the two file
   systems. *)
open Sim

let small_profile =
  { Trace.Workloads.engineering with Trace.Synth.population = 40; ops_per_second = 4.0 }

let gen seed secs =
  Trace.Synth.generate small_profile ~rng:(Rng.create ~seed) ~duration:(Time.span_s secs)

(* --- Determinism ------------------------------------------------------------- *)

let run_once seed =
  let trace = gen seed 90.0 in
  let machine = Ssmc.Machine.create (Ssmc.Config.solid_state ~seed ()) in
  Ssmc.Machine.preload machine trace.Trace.Synth.initial_files;
  Ssmc.Machine.run machine trace.Trace.Synth.records

let test_whole_machine_determinism () =
  let a = run_once 21 and b = run_once 21 in
  Alcotest.(check int) "same op count" a.Ssmc.Machine.ops_applied b.Ssmc.Machine.ops_applied;
  Alcotest.(check (float 0.0)) "identical busy time"
    (Time.span_to_us a.Ssmc.Machine.busy)
    (Time.span_to_us b.Ssmc.Machine.busy);
  Alcotest.(check (float 0.0)) "identical energy" a.Ssmc.Machine.energy_j
    b.Ssmc.Machine.energy_j;
  let sa = Option.get a.Ssmc.Machine.manager_stats in
  let sb = Option.get b.Ssmc.Machine.manager_stats in
  Alcotest.(check int) "identical flush count" sa.Storage.Manager.blocks_flushed
    sb.Storage.Manager.blocks_flushed

(* --- Trace file round trip through a machine ----------------------------------- *)

let test_trace_file_roundtrip_same_result () =
  let trace = gen 22 60.0 in
  let path = Filename.temp_file "ssmc" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.Format_io.write_file path trace.Trace.Synth.records;
      let records =
        match Trace.Format_io.read_file path with
        | Ok r -> r
        | Error e -> Alcotest.fail e
      in
      let run records =
        let machine = Ssmc.Machine.create (Ssmc.Config.solid_state ~seed:22 ()) in
        Ssmc.Machine.preload machine trace.Trace.Synth.initial_files;
        Ssmc.Machine.run machine records
      in
      let direct = run trace.Trace.Synth.records in
      let via_file = run records in
      Alcotest.(check int) "ops" direct.Ssmc.Machine.ops_applied
        via_file.Ssmc.Machine.ops_applied;
      Alcotest.(check (float 0.0)) "busy identical"
        (Time.span_to_us direct.Ssmc.Machine.busy)
        (Time.span_to_us via_file.Ssmc.Machine.busy))

(* --- Battery exhaustion mid-run -------------------------------------------------- *)

let test_battery_exhaustion_mid_run () =
  let trace = gen 23 600.0 in
  (* A hopeless battery: the accounting must drain it to zero and keep
     counting unmet demand rather than crash. *)
  let machine =
    Ssmc.Machine.create
      (Ssmc.Config.solid_state ~battery_wh:0.0005 ~backup_wh:0.0001 ~seed:23 ())
  in
  Ssmc.Machine.preload machine trace.Trace.Synth.initial_files;
  let result = Ssmc.Machine.run machine trace.Trace.Synth.records in
  let battery = Ssmc.Machine.battery machine in
  Alcotest.(check bool) "battery exhausted" true (Device.Battery.exhausted battery);
  Alcotest.(check bool) "unmet demand recorded" true
    (Device.Battery.unmet_joules battery > 0.0);
  (* The run itself still completes (the simulator models, it doesn't die). *)
  Alcotest.(check int) "all ops applied" (List.length trace.Trace.Synth.records)
    result.Ssmc.Machine.ops_applied;
  (* And the failure analysis says DRAM contents are gone. *)
  let manager = Option.get (Ssmc.Machine.manager machine) in
  let outcome =
    Ssmc.Recovery.power_failure ~manager ~battery ~dram_battery_backed:true
  in
  Alcotest.(check bool) "nothing protects DRAM" true
    (outcome.Ssmc.Recovery.survived_by = `Nothing)

(* --- Flash wear-out mid-run ------------------------------------------------------- *)

let test_flash_wearout_mid_run () =
  (* Tiny endurance: segments retire during the run; the machine keeps
     going until space genuinely runs out (if ever). *)
  let trace = gen 24 900.0 in
  let machine =
    Ssmc.Machine.create
      (Ssmc.Config.solid_state ~flash_mb:4 ~endurance_override:60 ~seed:24 ())
  in
  Ssmc.Machine.preload machine trace.Trace.Synth.initial_files;
  (match Ssmc.Machine.run machine trace.Trace.Synth.records with
  | _result -> ()
  | exception Storage.Manager.Out_of_space -> () (* acceptable: the device died *));
  let flash = Option.get (Ssmc.Machine.flash machine) in
  let manager = Option.get (Ssmc.Machine.manager machine) in
  let stats = Storage.Manager.stats manager in
  (* Wear happened; whether sectors died depends on the workload, but the
     accounting must be consistent either way. *)
  Alcotest.(check bool) "erases happened" true (Device.Flash.erases flash > 0);
  Alcotest.(check bool) "capacity accounting consistent" true
    (Storage.Manager.capacity_blocks manager
    = (Storage.Manager.nsegments manager - stats.Storage.Manager.retired_segments) * 32)

(* --- Streaming replay equals list replay ------------------------------------------ *)

let check_same_result label (a : Ssmc.Machine.result) (b : Ssmc.Machine.result) =
  let chk what = Alcotest.(check int) (label ^ ": " ^ what) in
  chk "ops" a.Ssmc.Machine.ops_applied b.Ssmc.Machine.ops_applied;
  chk "errors" a.Ssmc.Machine.op_errors b.Ssmc.Machine.op_errors;
  Alcotest.(check (float 0.0)) (label ^ ": busy")
    (Time.span_to_us a.Ssmc.Machine.busy)
    (Time.span_to_us b.Ssmc.Machine.busy);
  Alcotest.(check (float 0.0)) (label ^ ": energy") a.Ssmc.Machine.energy_j
    b.Ssmc.Machine.energy_j;
  let sa = Option.get a.Ssmc.Machine.manager_stats in
  let sb = Option.get b.Ssmc.Machine.manager_stats in
  chk "flushes" sa.Storage.Manager.blocks_flushed sb.Storage.Manager.blocks_flushed;
  chk "client writes" sa.Storage.Manager.client_writes sb.Storage.Manager.client_writes;
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s: write p%.0f" label (100.0 *. q))
        (Stat.Histogram.quantile a.Ssmc.Machine.write_hist_us q)
        (Stat.Histogram.quantile b.Ssmc.Machine.write_hist_us q))
    [ 0.5; 0.9; 0.99 ]

let test_streaming_replay_equivalence () =
  (* The same workload replayed three ways — materialized list, that list
     as a Seq, and generated-on-the-fly — must give identical results and
     identical final file-system state. *)
  let machine () = Ssmc.Machine.create (Ssmc.Config.solid_state ~seed:25 ()) in
  let trace = gen 25 120.0 in
  let finish m result = (result, m) in
  let via_list =
    let m = machine () in
    Ssmc.Machine.preload m trace.Trace.Synth.initial_files;
    finish m (Ssmc.Machine.run m trace.Trace.Synth.records)
  in
  let via_seq_of_list =
    let m = machine () in
    Ssmc.Machine.preload m trace.Trace.Synth.initial_files;
    finish m (Ssmc.Machine.run_seq m (List.to_seq trace.Trace.Synth.records))
  in
  let via_stream =
    let m = machine () in
    let t =
      Trace.Synth.generate_seq small_profile ~rng:(Rng.create ~seed:25)
        ~duration:(Time.span_s 120.0)
    in
    Ssmc.Machine.preload m t.Trace.Synth.stream_initial_files;
    finish m (Ssmc.Machine.run_seq m t.Trace.Synth.seq)
  in
  let (r_list, m_list) = via_list in
  List.iter
    (fun (label, (r, m)) ->
      check_same_result label r_list r;
      let fs_of m = Option.get (Ssmc.Machine.memfs m) in
      (match Fs.Memfs.check (fs_of m) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: fsck: %s" label msg);
      Alcotest.(check int) (label ^ ": metadata bytes")
        (Fs.Memfs.metadata_bytes (fs_of m_list))
        (Fs.Memfs.metadata_bytes (fs_of m)))
    [ ("seq-of-list", via_seq_of_list); ("end-to-end stream", via_stream) ]

(* --- A streamed replay holds a bounded window of its trace ------------------------- *)

let test_streaming_window_bounded () =
  (* [run_seq] pulls its stream a chunk at a time, so the records forced
     from the stream run ahead of the records applied by about one chunk
     however long the trace is: a replay's memory does not grow with its
     trace.  Sampled every 512 forced records, with the applied count read
     from the [machine.ops] counter. *)
  let metrics_were = Probe.metrics_enabled () in
  Probe.set_metrics true;
  Fun.protect
    ~finally:(fun () ->
      Probe.reset ();
      Probe.set_metrics metrics_were)
    (fun () ->
      let trace =
        Trace.Synth.generate_seq Trace.Workloads.engineering ~rng:(Rng.create ~seed:71)
          ~duration:(Time.span_s 1200.0)
      in
      let machine =
        Ssmc.Machine.create (Ssmc.Config.solid_state ~flash_mb:64 ~seed:71 ())
      in
      Ssmc.Machine.preload machine trace.Trace.Synth.stream_initial_files;
      let forced = ref 0 and ahead = ref 0 in
      let rec counted records () =
        match records () with
        | Seq.Nil -> Seq.Nil
        | Seq.Cons (r, rest) ->
          incr forced;
          if !forced mod 512 = 0 then begin
            let snap = Probe.snapshot () in
            ahead := max !ahead (!forced - Probe.Snapshot.counter_value snap "machine.ops")
          end;
          Seq.Cons (r, counted rest)
      in
      let result = Ssmc.Machine.run_seq machine (counted trace.Trace.Synth.seq) in
      let bound = 2 * Trace.Replay.Compiled.chunk_records in
      Printf.printf "%d records; at most %d forced ahead of the replay\n" !forced !ahead;
      Alcotest.(check int) "every record applied" !forced result.Ssmc.Machine.ops_applied;
      if !ahead > bound then
        Alcotest.failf "%d records forced ahead of the replay (of %d); at most %d" !ahead
          !forced bound)

(* --- A streamed trace replays like a precompiled one ------------------------------ *)

let test_compiled_replay_equivalence () =
  (* [run_seq] lowers its stream a chunk at a time; the same
     trace lowered up front must replay byte-identically.  The trace spans
     a full chunk and a partial one, and a cold restart in the second
     chunk kills the pre-resolved route mid-stream. *)
  let seed = 26 in
  let stream () =
    Trace.Synth.generate_seq Trace.Workloads.engineering ~rng:(Rng.create ~seed)
      ~duration:(Time.span_s 250.0)
  in
  let compiled = Trace.Replay.Compiled.compile (List.of_seq (stream ()).Trace.Synth.seq) in
  let n = Trace.Replay.Compiled.length compiled
  and chunk = Trace.Replay.Compiled.chunk_records in
  Alcotest.(check bool)
    (Printf.sprintf "%d records: two chunks, the last partial" n)
    true
    (n > chunk && n < 2 * chunk);
  let run ?faults driver =
    (* No backup battery: a depletion fault forces a cold restart. *)
    let m = Ssmc.Machine.create (Ssmc.Config.solid_state ~backup_wh:0.0 ~seed ()) in
    Ssmc.Machine.preload m (stream ()).Trace.Synth.stream_initial_files;
    let r = driver ?faults m in
    (match Fs.Memfs.check (Option.get (Ssmc.Machine.memfs m)) with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "fsck: %s" msg);
    r
  in
  let streamed ?faults m = Ssmc.Machine.run_seq ?faults m (stream ()).Trace.Synth.seq in
  let precompiled ?faults m = Ssmc.Machine.run_compiled ?faults m compiled in
  let deep_check label (a : Ssmc.Machine.result) (b : Ssmc.Machine.result) =
    check_same_result label a b;
    let fcheck what va vb = Alcotest.(check (float 0.0)) (label ^ ": " ^ what) va vb in
    fcheck "elapsed" (Time.span_to_us a.Ssmc.Machine.elapsed)
      (Time.span_to_us b.Ssmc.Machine.elapsed);
    fcheck "read mean"
      (Stat.Summary.mean a.Ssmc.Machine.read_latency)
      (Stat.Summary.mean b.Ssmc.Machine.read_latency);
    fcheck "write mean"
      (Stat.Summary.mean a.Ssmc.Machine.write_latency)
      (Stat.Summary.mean b.Ssmc.Machine.write_latency);
    fcheck "meta mean"
      (Stat.Summary.mean a.Ssmc.Machine.meta_latency)
      (Stat.Summary.mean b.Ssmc.Machine.meta_latency)
  in
  deep_check "streamed" (run streamed) (run precompiled);
  (* Halfway between the second chunk's first record and the last one. *)
  let at i = compiled.Trace.Replay.Compiled.at_ns.(i) in
  let faults =
    [
      {
        Fault.after = Time.span_ns ((at chunk + at (n - 1)) / 2);
        kind = Fault.Battery_depletion;
      };
    ]
  in
  let af = run ~faults streamed in
  let bf = run ~faults precompiled in
  Alcotest.(check bool) "cold restart happened" true
    (List.exists (fun o -> o.Ssmc.Machine.cold_restart) af.Ssmc.Machine.fault_log);
  deep_check "streamed+cold-restart" af bf

(* --- memfs / ffs logical equivalence ---------------------------------------------- *)

let apply_all (type fs) (module F : Fs.Vfs.S with type t = fs) (fs : fs) ops =
  List.iter
    (fun op ->
      let ignore_result = function Ok _ | Error _ -> () in
      match op with
      | `Mkdir p -> ignore_result (F.mkdir fs p)
      | `Create p -> ignore_result (F.create fs p)
      | `Write (p, off, n) -> ignore_result (F.write fs p ~offset:off ~bytes:n)
      | `Truncate (p, n) -> ignore_result (F.truncate fs p ~size:n)
      | `Rename (a, b) -> ignore_result (F.rename fs a b)
      | `Unlink p -> ignore_result (F.unlink fs p))
    ops

let observe (type fs) (module F : Fs.Vfs.S with type t = fs) (fs : fs) paths =
  List.map
    (fun p ->
      ( p,
        F.exists fs p,
        (match F.file_size fs p with Ok n -> n | Error _ -> -1),
        match F.readdir fs p with Ok l -> l | Error _ -> [] ))
    paths

let test_fs_equivalence () =
  let engine_m = Engine.create () in
  let flash = Device.Flash.create (Device.Flash.config ~nbanks:2 ~size_bytes:(2 * Units.mib) ()) in
  let dram_m = Device.Dram.create ~size_bytes:Units.mib ~battery_backed:true () in
  let manager = Storage.Manager.create Storage.Manager.default_config ~engine:engine_m ~flash ~dram:dram_m in
  let memfs = Fs.Memfs.create_fs ~manager () in
  let engine_f = Engine.create () in
  let disk = Device.Disk.create ~rng:(Rng.create ~seed:9) () in
  let dram_f = Device.Dram.create ~size_bytes:Units.mib ~battery_backed:true () in
  let ffs = Fs.Ffs.create_fs ~engine:engine_f ~disk ~dram:dram_f () in
  let ops =
    [
      `Mkdir "/a";
      `Mkdir "/a/b";
      `Create "/a/b/one";
      `Write ("/a/b/one", 0, 5000);
      `Create "/two";
      `Write ("/two", 8192, 100);
      `Truncate ("/a/b/one", 1000);
      `Rename ("/a/b/one", "/a/renamed");
      `Rename ("/a", "/z");  (* moving a directory moves the subtree *)
      `Create "/z/b/back";
      `Unlink "/two";
      `Unlink "/nonexistent";  (* both must reject identically *)
      `Rename ("/z", "/z/b/cycle");  (* both must reject: into own subtree *)
    ]
  in
  apply_all (module Fs.Memfs) memfs ops;
  apply_all (module Fs.Ffs) ffs ops;
  let paths =
    [ "/"; "/a"; "/z"; "/z/b"; "/z/renamed"; "/z/b/back"; "/two"; "/a/b/one" ]
  in
  (match Fs.Memfs.check memfs with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "memfs fsck: %s" msg);
  (match Fs.Ffs.check ffs with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "ffs fsck: %s" msg);
  let om = observe (module Fs.Memfs) memfs paths in
  let off = observe (module Fs.Ffs) ffs paths in
  List.iter2
    (fun (p, e1, s1, d1) (_, e2, s2, d2) ->
      Alcotest.(check bool) (p ^ " existence agrees") e1 e2;
      Alcotest.(check int) (p ^ " size agrees") s1 s2;
      Alcotest.(check (list string)) (p ^ " listing agrees") d1 d2)
    om off

(* --- Rename semantics (per FS) --------------------------------------------------- *)

let test_rename_memfs () =
  let engine = Engine.create () in
  let flash = Device.Flash.create (Device.Flash.config ~size_bytes:(512 * 1024) ()) in
  let dram = Device.Dram.create ~size_bytes:Units.mib ~battery_backed:true () in
  let manager = Storage.Manager.create Storage.Manager.default_config ~engine ~flash ~dram in
  let fs = Fs.Memfs.create_fs ~manager () in
  let ok = function Ok v -> v | Error e -> Alcotest.failf "%a" Fs.Fs_error.pp e in
  ignore (ok (Fs.Memfs.create fs "/f"));
  ignore (ok (Fs.Memfs.write fs "/f" ~offset:0 ~bytes:1234));
  ignore (ok (Fs.Memfs.rename fs "/f" "/g"));
  Alcotest.(check bool) "source gone" false (Fs.Memfs.exists fs "/f");
  Alcotest.(check int) "data follows" 1234 (ok (Fs.Memfs.file_size fs "/g"));
  Alcotest.(check bool) "dst exists rejected" true
    (match
       Fs.Memfs.create fs "/h" |> Result.get_ok |> ignore;
       Fs.Memfs.rename fs "/g" "/h"
     with
    | Error Fs.Fs_error.Eexist -> true
    | _ -> false);
  Alcotest.(check bool) "missing source" true
    (Fs.Memfs.rename fs "/nope" "/x" = Error Fs.Fs_error.Enoent)

let test_rename_ffs_costs_io () =
  let engine = Engine.create () in
  let disk = Device.Disk.create ~rng:(Rng.create ~seed:10) () in
  let dram = Device.Dram.create ~size_bytes:Units.mib ~battery_backed:true () in
  let fs = Fs.Ffs.create_fs ~engine ~disk ~dram () in
  let ok = function Ok v -> v | Error e -> Alcotest.failf "%a" Fs.Fs_error.pp e in
  ignore (ok (Fs.Ffs.create fs "/f"));
  let span = ok (Fs.Ffs.rename fs "/f" "/g") in
  Alcotest.(check bool) "synchronous metadata writes" true (Time.span_to_ms span > 1.0);
  Alcotest.(check bool) "renamed" true (Fs.Ffs.exists fs "/g")

(* --- The disk baseline on a full disk -------------------------------------------- *)

(* Long engineering-style traces fill the conventional machine's 20 MB disk.
   Writes then fail with ENOSPC, and each failed write must leave the file
   system consistent: a fragment tail that cannot be placed may neither stay
   allocated without an owner nor be released while the map still points at
   it, or fsck fails and a later [free_frags] raises out of replay. *)
let check_full_disk_replay profile ~seed ~minutes =
  let trace =
    Trace.Synth.generate profile ~rng:(Rng.create ~seed)
      ~duration:(Time.span_s (60.0 *. minutes))
  in
  let machine = Ssmc.Machine.create (Ssmc.Config.conventional ~seed ()) in
  Ssmc.Machine.preload machine trace.Trace.Synth.initial_files;
  let result = Ssmc.Machine.run machine trace.Trace.Synth.records in
  let label = Printf.sprintf "%s seed %d, %g min" profile.Trace.Synth.name seed minutes in
  Alcotest.(check bool) (label ^ ": the disk filled") true
    (result.Ssmc.Machine.op_errors > 0);
  match Fs.Ffs.check (Option.get (Ssmc.Machine.ffs machine)) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: fsck: %s" label msg

let test_full_disk_replay () =
  check_full_disk_replay Trace.Workloads.engineering ~seed:1 ~minutes:30.0

let test_full_disk_replay_long () =
  List.iter
    (fun seed -> check_full_disk_replay Trace.Workloads.engineering ~seed ~minutes:60.0)
    [ 2; 3; 61 ];
  check_full_disk_replay Trace.Workloads.compile ~seed:5 ~minutes:60.0

let suite =
  [
    Alcotest.test_case "whole-machine determinism" `Slow test_whole_machine_determinism;
    Alcotest.test_case "trace file roundtrip" `Quick test_trace_file_roundtrip_same_result;
    Alcotest.test_case "streaming replay equivalence" `Quick
      test_streaming_replay_equivalence;
    Alcotest.test_case "streaming window bounded" `Quick test_streaming_window_bounded;
    Alcotest.test_case "compiled replay equivalence" `Quick
      test_compiled_replay_equivalence;
    Alcotest.test_case "battery exhaustion mid-run" `Slow test_battery_exhaustion_mid_run;
    Alcotest.test_case "flash wear-out mid-run" `Slow test_flash_wearout_mid_run;
    Alcotest.test_case "memfs/ffs equivalence" `Quick test_fs_equivalence;
    Alcotest.test_case "rename (memfs)" `Quick test_rename_memfs;
    Alcotest.test_case "rename (ffs) costs io" `Quick test_rename_ffs_costs_io;
    Alcotest.test_case "full-disk ffs replay (30 min)" `Quick test_full_disk_replay;
    Alcotest.test_case "full-disk ffs replays (60 min)" `Slow
      test_full_disk_replay_long;
  ]
