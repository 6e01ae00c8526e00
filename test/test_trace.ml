open Sim

let record at op = { Trace.Record.at = Time.of_ns at; op }

let w file offset bytes = Trace.Record.Write { file; offset; bytes }
let r file offset bytes = Trace.Record.Read { file; offset; bytes }

(* --- Record helpers ------------------------------------------------------- *)

let test_record_accessors () =
  let rec1 = record 5 (w 3 0 100) in
  Alcotest.(check int) "file" 3 (Trace.Record.file rec1);
  Alcotest.(check int) "bytes written" 100 (Trace.Record.bytes_written rec1);
  Alcotest.(check int) "bytes read" 0 (Trace.Record.bytes_read rec1);
  Alcotest.(check bool) "data op" true (Trace.Record.is_data_op rec1);
  let rec2 = record 9 (Trace.Record.Delete { file = 7 }) in
  Alcotest.(check int) "delete file" 7 (Trace.Record.file rec2);
  Alcotest.(check bool) "not data op" false (Trace.Record.is_data_op rec2);
  Alcotest.(check bool) "time order" true (Trace.Record.compare_by_time rec1 rec2 < 0)

(* --- Compiled form ----------------------------------------------------------- *)

let test_compile_roundtrip () =
  (* Lowering to struct-of-arrays and reconstructing gives back the exact
     records, across every op shape and across the growth boundary — whole,
     or chunk by chunk off an ephemeral stream, which must be pulled once
     per record plus once for its end. *)
  let many =
    List.init 10_000 (fun i ->
        match i mod 5 with
        | 0 -> record i (Trace.Record.Create { file = i })
        | 1 -> record i (w i (i * 3) (i + 7))
        | 2 -> record i (r i (i * 2) (i + 1))
        | 3 -> record i (Trace.Record.Truncate { file = i; size = i * 11 })
        | _ -> record i (Trace.Record.Delete { file = i }))
  in
  let records_of c =
    List.init (Trace.Replay.Compiled.length c) (Trace.Replay.Compiled.record c)
  in
  let check_records label expected got =
    List.iteri
      (fun i (orig, back) ->
        if back <> orig then
          Alcotest.failf "%s: record %d did not round-trip: %a" label i Trace.Record.pp back)
      (List.combine expected got)
  in
  let c = Trace.Replay.Compiled.compile (List.filteri (fun i _ -> i < 3000) many) in
  Alcotest.(check int) "length" 3000 (Trace.Replay.Compiled.length c);
  check_records "whole" (List.filteri (fun i _ -> i < 3000) many) (records_of c);
  let size = Trace.Replay.Compiled.chunk_records in
  List.iter
    (fun n ->
      let rest = ref (List.filteri (fun i _ -> i < n) many) in
      let pulls = ref 0 in
      let stream =
        Seq.of_dispenser (fun () ->
            incr pulls;
            match !rest with
            | [] -> None
            | r :: tl ->
              rest := tl;
              Some r)
      in
      let chunks = List.of_seq (Trace.Replay.Compiled.chunks stream) in
      let label = Printf.sprintf "%d records" n in
      Alcotest.(check (list int)) (label ^ ": chunk lengths")
        (List.init ((n + size - 1) / size) (fun k -> min size (n - (k * size))))
        (List.map Trace.Replay.Compiled.length chunks);
      Alcotest.(check int) (label ^ ": pulls") (n + 1) !pulls;
      check_records label
        (List.filteri (fun i _ -> i < n) many)
        (List.concat_map records_of chunks))
    [ 10_000; 2 * size; 0 ]

(* --- Text format ------------------------------------------------------------ *)

let all_op_shapes =
  [
    record 1 (Trace.Record.Create { file = 1 });
    record 2 (w 1 0 512);
    record 3 (r 1 512 1024);
    record 4 (Trace.Record.Truncate { file = 1; size = 100 });
    record 5 (Trace.Record.Delete { file = 1 });
  ]

let test_format_roundtrip () =
  List.iter
    (fun rec_ ->
      let line = Trace.Format_io.to_line rec_ in
      match Trace.Format_io.of_line line with
      | Ok (Some back) ->
        Alcotest.(check string) "roundtrip" line (Trace.Format_io.to_line back)
      | Ok None -> Alcotest.fail "round-tripped to nothing"
      | Error e -> Alcotest.fail e)
    all_op_shapes

let test_format_comments_and_errors () =
  Alcotest.(check bool) "comment skipped" true (Trace.Format_io.of_line "# hi" = Ok None);
  Alcotest.(check bool) "blank skipped" true (Trace.Format_io.of_line "   " = Ok None);
  (match Trace.Format_io.of_line "1 frobnicate 2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  match Trace.Format_io.of_line "xyz write 1 2 3" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad integer accepted"

let test_format_file_io () =
  let path = Filename.temp_file "trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.Format_io.write_file path all_op_shapes;
      match Trace.Format_io.read_file path with
      | Ok records ->
        Alcotest.(check int) "count" (List.length all_op_shapes) (List.length records);
        List.iter2
          (fun a b ->
            Alcotest.(check string) "same" (Trace.Format_io.to_line a)
              (Trace.Format_io.to_line b))
          all_op_shapes records
      | Error e -> Alcotest.fail e)

let test_init_directives () =
  Alcotest.(check string) "render" "#init 7 1234" (Trace.Format_io.init_directive 7 1234);
  Alcotest.(check (option (pair int int))) "parse" (Some (7, 1234))
    (Trace.Format_io.parse_init "#init 7 1234");
  Alcotest.(check (option (pair int int))) "plain comment is not init" None
    (Trace.Format_io.parse_init "# hello");
  Alcotest.(check (option (pair int int))) "malformed" None
    (Trace.Format_io.parse_init "#init x y");
  (* A file written with directives round-trips both parts, and plain
     read_file still sees only the records. *)
  let path = Filename.temp_file "trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.Format_io.write_file ~initial_files:[ (0, 100); (1, 200) ] path all_op_shapes;
      (match Trace.Format_io.read_file_with_init path with
      | Ok (inits, records) ->
        Alcotest.(check (list (pair int int))) "inits" [ (0, 100); (1, 200) ] inits;
        Alcotest.(check int) "records" (List.length all_op_shapes) (List.length records)
      | Error e -> Alcotest.fail e);
      match Trace.Format_io.read_file path with
      | Ok records ->
        Alcotest.(check int) "directives are comments to read_file"
          (List.length all_op_shapes) (List.length records)
      | Error e -> Alcotest.fail e)

(* --- Synthetic generator ------------------------------------------------------ *)

let generate ?(profile = Trace.Workloads.engineering) ?(seed = 3) ?(secs = 120.0) () =
  Trace.Synth.generate profile ~rng:(Rng.create ~seed) ~duration:(Time.span_s secs)

let test_synth_time_ordered () =
  let t = generate () in
  let rec check_sorted = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "non-decreasing" true
        (Trace.Record.compare_by_time a b <= 0);
      check_sorted rest
    | [ _ ] | [] -> ()
  in
  check_sorted t.Trace.Synth.records

let test_synth_determinism () =
  let a = generate ~seed:5 () and b = generate ~seed:5 () in
  Alcotest.(check int) "same record count"
    (List.length a.Trace.Synth.records)
    (List.length b.Trace.Synth.records);
  List.iter2
    (fun x y ->
      Alcotest.(check string) "identical records" (Trace.Format_io.to_line x)
        (Trace.Format_io.to_line y))
    a.Trace.Synth.records b.Trace.Synth.records

let test_synth_ops_well_formed () =
  let t = generate () in
  let live = Hashtbl.create 64 in
  List.iter (fun (id, _) -> Hashtbl.replace live id ()) t.Trace.Synth.initial_files;
  List.iter
    (fun rec_ ->
      match rec_.Trace.Record.op with
      | Trace.Record.Create { file } ->
        Alcotest.(check bool) "create of fresh id" false (Hashtbl.mem live file);
        Hashtbl.replace live file ()
      | Trace.Record.Delete { file } ->
        Alcotest.(check bool) "delete of live file" true (Hashtbl.mem live file);
        Hashtbl.remove live file
      | Trace.Record.Write { file; offset; bytes } ->
        Alcotest.(check bool) "write to live file" true (Hashtbl.mem live file);
        Alcotest.(check bool) "sane range" true (offset >= 0 && bytes > 0)
      | Trace.Record.Read { file; offset; bytes } ->
        Alcotest.(check bool) "read of live file" true (Hashtbl.mem live file);
        Alcotest.(check bool) "sane range" true (offset >= 0 && bytes > 0)
      | Trace.Record.Truncate { file; size } ->
        Alcotest.(check bool) "truncate of live file" true (Hashtbl.mem live file);
        Alcotest.(check bool) "non-negative size" true (size >= 0))
    t.Trace.Synth.records

let test_synth_fresh_ids () =
  let t = generate () in
  let first = Trace.Synth.first_fresh_file t in
  Alcotest.(check int) "population boundary"
    t.Trace.Synth.profile.Trace.Synth.population first;
  List.iter
    (fun rec_ ->
      match rec_.Trace.Record.op with
      | Trace.Record.Create { file } ->
        Alcotest.(check bool) "created ids above population" true (file >= first)
      | _ -> ())
    t.Trace.Synth.records

let test_validate_profiles () =
  List.iter
    (fun p ->
      match Trace.Synth.validate p with
      | Ok () -> ()
      | Error e -> Alcotest.failf "profile %s invalid: %s" p.Trace.Synth.name e)
    Trace.Workloads.all;
  let bad = { Trace.Workloads.engineering with Trace.Synth.read_fraction = 1.5 } in
  match Trace.Synth.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bad profile accepted"

let test_workload_lookup () =
  Alcotest.(check bool) "find engineering" true (Trace.Workloads.find "engineering" <> None);
  Alcotest.(check bool) "find nothing" true (Trace.Workloads.find "nope" = None);
  Alcotest.(check int) "four profiles" 4 (List.length Trace.Workloads.all)

(* --- Stats --------------------------------------------------------------------- *)

let test_summarize () =
  let records =
    [
      record 0 (Trace.Record.Create { file = 1 });
      record 10 (w 1 0 1000);
      record 20 (r 1 0 500);
      record 30 (Trace.Record.Delete { file = 1 });
    ]
  in
  let s = Trace.Stats.summarize records in
  Alcotest.(check int) "ops" 4 s.Trace.Stats.ops;
  Alcotest.(check int) "writes" 1 s.Trace.Stats.writes;
  Alcotest.(check int) "bytes written" 1000 s.Trace.Stats.bytes_written;
  Alcotest.(check int) "bytes read" 500 s.Trace.Stats.bytes_read;
  Alcotest.(check int) "files" 1 s.Trace.Stats.distinct_files;
  Alcotest.(check int) "duration" 30 (Time.span_to_ns s.Trace.Stats.duration)

let sec n = Time.of_ns (n * 1_000_000_000)

let test_write_death_by_delete () =
  (* 512B written, file deleted 5s later: dead within a 30s window. *)
  let records =
    [
      { Trace.Record.at = sec 0; op = w 1 0 512 };
      { Trace.Record.at = sec 5; op = Trace.Record.Delete { file = 1 } };
    ]
  in
  let d = Trace.Stats.write_death records ~window:(Time.span_s 30.0) in
  Alcotest.(check int) "written" 512 d.Trace.Stats.written_bytes;
  Alcotest.(check int) "dead" 512 d.Trace.Stats.dead_bytes;
  Alcotest.(check (float 1e-9)) "fraction" 1.0 d.Trace.Stats.dead_fraction

let test_write_death_by_overwrite () =
  let records =
    [
      { Trace.Record.at = sec 0; op = w 1 0 512 };
      { Trace.Record.at = sec 10; op = w 1 0 512 };  (* kills the first *)
      { Trace.Record.at = sec 50; op = w 1 0 512 };  (* second dies outside window *)
    ]
  in
  let d = Trace.Stats.write_death records ~window:(Time.span_s 30.0) in
  Alcotest.(check int) "written" 1536 d.Trace.Stats.written_bytes;
  Alcotest.(check int) "only the first death counts" 512 d.Trace.Stats.dead_bytes

let test_write_death_by_truncate () =
  let records =
    [
      { Trace.Record.at = sec 0; op = w 1 0 1024 };
      { Trace.Record.at = sec 1; op = Trace.Record.Truncate { file = 1; size = 512 } };
    ]
  in
  let d = Trace.Stats.write_death records ~window:(Time.span_s 30.0) in
  Alcotest.(check int) "tail died" 512 d.Trace.Stats.dead_bytes

let test_write_death_survivors () =
  let records = [ { Trace.Record.at = sec 0; op = w 1 0 2048 } ] in
  let d = Trace.Stats.write_death records ~window:(Time.span_s 30.0) in
  Alcotest.(check int) "nothing died" 0 d.Trace.Stats.dead_bytes;
  Alcotest.(check (float 1e-9)) "fraction 0" 0.0 d.Trace.Stats.dead_fraction

let test_engineering_death_fraction_matches_baker () =
  (* The Sprite-calibrated workload should have roughly half its written
     bytes dead within 30s — the premise of the paper's 40-50% claim. *)
  let t = generate ~secs:900.0 () in
  let d = Trace.Stats.write_death t.Trace.Synth.records ~window:(Time.span_s 30.0) in
  Alcotest.(check bool)
    (Printf.sprintf "death fraction %.2f in [0.35, 0.70]" d.Trace.Stats.dead_fraction)
    true
    (d.Trace.Stats.dead_fraction >= 0.35 && d.Trace.Stats.dead_fraction <= 0.70)

(* --- Replay ---------------------------------------------------------------------- *)

(* Replay is [Ssmc.Machine]'s one driver; these pin its clock rules on a
   whole machine.  A machine starts replaying after its preload settles, so
   record instants are relative to [started]. *)
let preloaded_machine () =
  let m = Ssmc.Machine.create (Ssmc.Config.solid_state ~seed:1 ()) in
  Ssmc.Machine.preload m [ (1, 4096) ];
  (m, Time.to_ns (Engine.now (Ssmc.Machine.engine m)))

let ms n = n * 1_000_000

let test_replay_advances_clock () =
  let m, started = preloaded_machine () in
  Probe.set_timeline true;
  Fun.protect
    ~finally:(fun () ->
      Probe.set_timeline false;
      Probe.reset ())
    (fun () ->
      ignore (Ssmc.Machine.run m [ record (ms 100) (w 1 0 512); record (ms 300) (r 1 0 512) ]);
      let ops =
        List.filter_map
          (fun e ->
            if e.Probe.Timeline.ev_cat = "op" then
              Some (e.Probe.Timeline.ev_name, e.Probe.Timeline.ev_ts_ns - started)
            else None)
          (Probe.Timeline.events ())
      in
      Alcotest.(check (list (pair string int)))
        "applied at the record instants"
        [ ("op.write", ms 100); ("op.read", ms 300) ]
        ops)

let test_replay_runs_due_events () =
  (* An engine event due before a record fires before it is applied; one
     due after fires after. *)
  let m, started = preloaded_machine () in
  let seen = ref [] in
  let observe at =
    ignore
      (Engine.schedule (Ssmc.Machine.engine m) ~at:(Time.of_ns (started + at)) (fun _ ->
           let fs = Option.get (Ssmc.Machine.memfs m) in
           seen := (at, Fs.Memfs.exists fs "/data/f2") :: !seen))
  in
  observe (ms 50);
  observe (ms 150);
  ignore (Ssmc.Machine.run m [ record (ms 100) (w 2 0 512) ]);
  Alcotest.(check (list (pair int bool)))
    "events interleave with the record"
    [ (ms 50, false); (ms 150, true) ]
    (List.rev !seen)

(* --- Streaming ------------------------------------------------------------------- *)

let lines records = List.map Trace.Format_io.to_line records

let test_stream_equals_list () =
  (* The streamed generator must sample the RNG in exactly the eager
     order: same seed, byte-identical trace, for every workload. *)
  List.iter
    (fun profile ->
      let duration = Time.span_s 120.0 in
      let eager = Trace.Synth.generate profile ~rng:(Rng.create ~seed:9) ~duration in
      let streamed =
        Trace.Synth.generate_seq profile ~rng:(Rng.create ~seed:9) ~duration
      in
      Alcotest.(check (list (pair int int)))
        (profile.Trace.Synth.name ^ " initial files")
        eager.Trace.Synth.initial_files streamed.Trace.Synth.stream_initial_files;
      Alcotest.(check int)
        (profile.Trace.Synth.name ^ " fresh-id boundary")
        (Trace.Synth.first_fresh_file eager)
        (Trace.Synth.stream_first_fresh_file streamed);
      Alcotest.(check (list string))
        (profile.Trace.Synth.name ^ " records")
        (lines eager.Trace.Synth.records)
        (lines (List.of_seq streamed.Trace.Synth.seq)))
    Trace.Workloads.all

let test_stream_summary_equals_list () =
  let duration = Time.span_s 300.0 in
  let eager =
    Trace.Synth.generate Trace.Workloads.engineering ~rng:(Rng.create ~seed:13) ~duration
  in
  let streamed =
    Trace.Synth.generate_seq Trace.Workloads.engineering ~rng:(Rng.create ~seed:13)
      ~duration
  in
  let a = Trace.Stats.summarize eager.Trace.Synth.records in
  let b = Trace.Stats.summarize_seq streamed.Trace.Synth.seq in
  Alcotest.(check bool) "identical summaries" true (a = b)

let test_stream_file_roundtrip () =
  let path = Filename.temp_file "trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let inits = [ (0, 100); (1, 200) ] in
      let n =
        Trace.Format_io.write_file_seq ~initial_files:inits path
          (List.to_seq all_op_shapes)
      in
      Alcotest.(check int) "write_file_seq count" (List.length all_op_shapes) n;
      (* The streamed writer produces what the eager writer produced. *)
      let eager_path = Filename.temp_file "trace" ".txt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove eager_path)
        (fun () ->
          Trace.Format_io.write_file ~initial_files:inits eager_path all_op_shapes;
          let slurp p = In_channel.with_open_text p In_channel.input_all in
          Alcotest.(check string) "byte-identical file" (slurp eager_path) (slurp path));
      (* read_seq sees both parts. *)
      let seen_inits = ref [] in
      let back =
        In_channel.with_open_text path (fun ic ->
            List.of_seq
              (Trace.Format_io.read_seq
                 ~on_init:(fun init -> seen_inits := init :: !seen_inits)
                 ic))
      in
      Alcotest.(check (list (pair int int))) "inits" inits (List.rev !seen_inits);
      Alcotest.(check (list string)) "records" (lines all_op_shapes) (lines back);
      (* fold_channel folds every record, in order. *)
      match
        In_channel.with_open_text path (fun ic ->
            Trace.Format_io.fold_channel ic ~init:0 ~f:(fun n _ -> n + 1))
      with
      | Ok n -> Alcotest.(check int) "fold count" (List.length all_op_shapes) n
      | Error e -> Alcotest.fail e)

let test_stream_read_errors () =
  let path = Filename.temp_file "trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc "# fine\n1 write 1 0 512\n2 frobnicate 9\n");
      (match
         In_channel.with_open_text path (fun ic ->
             Trace.Format_io.fold_channel ic ~init:0 ~f:(fun n _ -> n + 1))
       with
      | Ok _ -> Alcotest.fail "garbage accepted"
      | Error e ->
        Alcotest.(check bool) ("error cites the line: " ^ e) true
          (String.length e >= 7 && String.sub e 0 7 = "line 3:"));
      match
        In_channel.with_open_text path (fun ic ->
            List.of_seq (Trace.Format_io.read_seq ic))
      with
      | exception Failure e ->
        Alcotest.(check bool) ("read_seq raises with line: " ^ e) true
          (String.length e >= 7 && String.sub e 0 7 = "line 3:")
      | _ -> Alcotest.fail "read_seq accepted garbage")

let suite =
  [
    Alcotest.test_case "record accessors" `Quick test_record_accessors;
    Alcotest.test_case "format roundtrip" `Quick test_format_roundtrip;
    Alcotest.test_case "format comments/errors" `Quick test_format_comments_and_errors;
    Alcotest.test_case "format file io" `Quick test_format_file_io;
    Alcotest.test_case "init directives" `Quick test_init_directives;
    Alcotest.test_case "synth time-ordered" `Quick test_synth_time_ordered;
    Alcotest.test_case "synth deterministic" `Quick test_synth_determinism;
    Alcotest.test_case "synth well-formed" `Quick test_synth_ops_well_formed;
    Alcotest.test_case "synth fresh ids" `Quick test_synth_fresh_ids;
    Alcotest.test_case "profiles validate" `Quick test_validate_profiles;
    Alcotest.test_case "workload lookup" `Quick test_workload_lookup;
    Alcotest.test_case "summarize" `Quick test_summarize;
    Alcotest.test_case "death by delete" `Quick test_write_death_by_delete;
    Alcotest.test_case "death by overwrite" `Quick test_write_death_by_overwrite;
    Alcotest.test_case "death by truncate" `Quick test_write_death_by_truncate;
    Alcotest.test_case "survivors" `Quick test_write_death_survivors;
    Alcotest.test_case "Baker death fraction" `Slow test_engineering_death_fraction_matches_baker;
    Alcotest.test_case "compile roundtrip" `Quick test_compile_roundtrip;
    Alcotest.test_case "replay clock" `Quick test_replay_advances_clock;
    Alcotest.test_case "replay due events" `Quick test_replay_runs_due_events;
    Alcotest.test_case "stream equals list" `Quick test_stream_equals_list;
    Alcotest.test_case "stream summary equals list" `Quick test_stream_summary_equals_list;
    Alcotest.test_case "stream file roundtrip" `Quick test_stream_file_roundtrip;
    Alcotest.test_case "stream read errors" `Quick test_stream_read_errors;
  ]
