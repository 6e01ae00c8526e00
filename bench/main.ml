(* The experiment harness: regenerates every quantitative claim in the
   paper and its extensions (experiments E1-E15, see DESIGN.md and
   EXPERIMENTS.md).  Every experiment reports simulated quantities; the
   simulator's own host time and allocation are perfbench's to measure
   (perfbench/README.md), and the test suite holds their ceilings.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- e6 e8   # selected experiments
     dune exec bench/main.exe -- --list  # print the experiment table
     QUICK=1 dune exec bench/main.exe    # shorter runs for iteration
     QUICK=1 dune exec bench/main.exe -- --check  # the pinned contracts

   --jobs N sizes the Domain pool independent simulation points run on
   (default: SSMC_JOBS or the machine's core count); results are
   byte-identical at any job count.  --json FILE additionally writes
   machine-readable results: per experiment its wall-clock seconds and
   the headline metrics it recorded, plus the job count and the process
   peak RSS.  --check runs every row of [Contract.rows] at jobs 1 and 2
   and exits 1 if any contract breaks. *)

let experiments =
  [
    ("e1", "Section 2 device comparison", E1_devices.run);
    ("e2", "Section 2 technology trends", E2_trends.run);
    ("e3", "Section 3.1 memory-resident FS vs disk FS", E3_filesystem.run);
    ("e4", "Section 3.1 map-in-place and copy-on-write", E4_inplace.run);
    ("e5", "Section 3.2 execute-in-place", E5_xip.run);
    ("e6", "Section 3.3 DRAM write buffering", E6_write_buffer.run);
    ("e7", "Section 3.3 cleaning and wear leveling", E7_cleaning_wear.run);
    ("e8", "Section 3.3 bank partitioning", E8_banks.run);
    ("e9", "Section 4 DRAM/flash sizing", E9_sizing.run);
    ("e10", "Section 2 storage power and battery life", E10_battery.run);
    ("e11", "Section 3.3 fault injection and crash recovery", E11_faults.run);
    ("e12", "fleet-scale simulation: a device population in bounded memory", E12_fleet.run);
    ("e13", "striped multi-card storage arrays", E13_card_array.run);
    ("e14", "parity strips and degraded operation", E14_parity.run);
    ("e15", "page-differential logging trade-off", E15_diff_log.run);
  ]

(* Peak resident set of this process, in kB, from the kernel's
   high-water mark ("VmHWM:  12345 kB" in /proc/self/status). *)
let max_rss_kb () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some line -> (
            try Some (Scanf.sscanf line "VmHWM: %d kB" Fun.id)
            with Scanf.Scan_failure _ | Failure _ | End_of_file -> scan ())
        in
        scan ())
  with Sys_error _ -> None

(* Emission goes through Sim.Json: numbers keep the %.6g format the
   snapshot comparisons rely on, and non-finite values become null instead
   of leaking "inf"/"nan" tokens no standard parser accepts. *)
let write_json path runs =
  let open Sim.Json in
  let doc =
    Obj
      [
        ("quick", Bool Common.quick);
        ("jobs", int (Sim.Pool.default_jobs ()));
        ( "max_rss_kb",
          match max_rss_kb () with Some kb -> int kb | None -> Null );
        ( "experiments",
          List
            (List.map
               (fun (name, descr, wall_s, metrics, probes) ->
                 Obj
                   [
                     ("experiment", String name);
                     ("description", String descr);
                     ("wall_s", number wall_s);
                     ( "metrics",
                       Obj (List.map (fun (key, v) -> (key, number v)) metrics) );
                     ("probes", Sim.Probe.Snapshot.to_json probes);
                   ])
               runs) );
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string doc);
      Out_channel.output_char oc '\n')

let print_experiment_table () =
  let t =
    Sim.Table.create ~title:"experiments"
      ~columns:[ ("name", Sim.Table.Left); ("description", Sim.Table.Left) ]
  in
  List.iter (fun (name, descr, _) -> Sim.Table.add_row t [ name; descr ]) experiments;
  Sim.Table.print t

let usage () =
  Fmt.epr "usage: main.exe [--list | --check] [--jobs N] [--json FILE] [EXPERIMENT...]@.";
  exit 2

(* One experiment run with fresh metrics and probes: what it recorded. *)
let run_experiment run =
  ignore (Common.take_metrics ());
  Sim.Probe.reset_all ();
  run ();
  (Common.take_metrics (), Sim.Probe.snapshot_all ())

let check () =
  if not Common.quick then begin
    Fmt.epr "--check compares QUICK snapshots: run it with QUICK=1@.";
    exit 2
  end;
  Sim.Probe.set_metrics true;
  let run_row (row : Contract.row) jobs =
    Sim.Pool.set_default_jobs jobs;
    List.concat_map
      (fun name ->
        let _, _, run = List.find (fun (n, _, _) -> n = name) experiments in
        fst (run_experiment run))
      row.experiments
  in
  let failures =
    List.concat_map
      (fun (row : Contract.row) ->
        let jobs1 = run_row row 1 in
        let jobs2 = run_row row 2 in
        let snapshot = Option.map Contract.load_snapshot row.snapshot in
        List.map
          (fun f -> Contract.name row ^ ": " ^ f)
          (Contract.verify row ~jobs1 ~jobs2 ~snapshot))
      Contract.rows
  in
  List.iter (Fmt.epr "CONTRACT %s@.") failures;
  Fmt.epr "--check: %d contract rows, %d failure%s@." (List.length Contract.rows)
    (List.length failures)
    (if List.length failures = 1 then "" else "s");
  exit (if failures = [] then 0 else 1)

let () =
  let json_path, jobs, mode, picks =
    let rec parse (json, jobs, mode, picks) = function
      | "--json" :: path :: rest -> parse (Some path, jobs, mode, picks) rest
      | [ "--json" ] ->
        Fmt.epr "--json needs a file argument@.";
        usage ()
      | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 -> parse (json, Some j, mode, picks) rest
        | _ ->
          Fmt.epr "--jobs needs a positive integer, got %S@." n;
          usage ())
      | [ "--jobs" ] ->
        Fmt.epr "--jobs needs an argument@.";
        usage ()
      | "--list" :: rest -> parse (json, jobs, `List, picks) rest
      | "--check" :: rest -> parse (json, jobs, `Check, picks) rest
      | arg :: rest -> parse (json, jobs, mode, arg :: picks) rest
      | [] -> (json, jobs, mode, List.rev picks)
    in
    parse (None, None, `Run, []) (List.tl (Array.to_list Sys.argv))
  in
  (match mode with
  | `List ->
    print_experiment_table ();
    exit 0
  | `Check when json_path = None && jobs = None && picks = [] -> check ()
  | `Check ->
    Fmt.epr "--check runs every contract row and takes no other argument@.";
    usage ()
  | `Run -> ());
  Option.iter Sim.Pool.set_default_jobs jobs;
  let requested =
    match picks with
    | [] -> List.map (fun (name, _, _) -> name) experiments
    | picks -> picks
  in
  (* One lookup per pick; unknown names are collected, not re-searched. *)
  let resolved =
    List.map
      (fun pick -> (pick, List.find_opt (fun (n, _, _) -> n = pick) experiments))
      requested
  in
  let unknown = List.filter_map (fun (p, r) -> if r = None then Some p else None) resolved in
  if unknown <> [] then begin
    Fmt.epr "unknown experiment(s): %a@.known: %a@."
      Fmt.(list ~sep:sp string)
      unknown
      Fmt.(list ~sep:sp string)
      (List.map (fun (n, _, _) -> n) experiments);
    exit 2
  end;
  Fmt.pr
    "Reproduction harness for 'Operating System Implications of Solid-State Mobile \
     Computers' (HotOS-IV 1993)@.";
  if Common.quick then Fmt.pr "(QUICK mode: shortened runs)@.";
  Fmt.pr "(domain pool: %d job%s)@." (Sim.Pool.default_jobs ())
    (if Sim.Pool.default_jobs () = 1 then "" else "s");
  (* The registry backs both the ad-hoc metric tables (E6/E7 read their
     counters from snapshots) and the per-experiment "probes" key in the
     JSON output, so metric recording stays on for the whole harness. *)
  Sim.Probe.set_metrics true;
  let runs =
    List.map
      (fun (name, descr, run) ->
        let t0 = Unix.gettimeofday () in
        let metrics, probes = run_experiment run in
        (name, descr, Unix.gettimeofday () -. t0, metrics, probes))
      (List.filter_map snd resolved)
  in
  (match json_path with
  | None -> ()
  | Some path ->
    write_json path runs;
    Fmt.pr "@.wrote machine-readable results to %s@." path);
  Fmt.pr "@.done.@."
