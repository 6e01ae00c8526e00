(* The contract checker must pass what the snapshots pin and fail on any
   drift from them.  Runs on the checked-in snapshots alone: no experiment
   is executed here (the runtest rule in this directory does that). *)

(* The test runs in the build copy of bench/, next to the snapshots. *)
let load (row : Contract.row) =
  match row.snapshot with
  | None -> None
  | Some path -> (
    match Contract.load_snapshot (Filename.basename path) with
    | Ok m -> Some m
    | Error e -> Alcotest.fail e)

let snapshot_rows =
  List.filter_map (fun row -> Option.map (fun m -> (row, m)) (load row)) Contract.rows

let verify row ~jobs1 ~jobs2 ~snapshot =
  Contract.verify row ~jobs1 ~jobs2 ~snapshot:(Some (Ok snapshot))

let test_snapshots_pass () =
  Alcotest.(check bool) "rows with snapshots" true (List.length snapshot_rows >= 6);
  List.iter
    (fun ((row : Contract.row), snap) ->
      Alcotest.(check (list string))
        (Contract.name row ^ " matches itself and meets its floors")
        []
        (verify row ~jobs1:snap ~jobs2:snap ~snapshot:snap))
    snapshot_rows

(* Add [delta] to the first metric a row pins. *)
let plant delta = function
  | (k, v) :: rest -> (k, v +. delta) :: rest
  | [] -> Alcotest.fail "empty snapshot"

let test_planted_drift_fails () =
  List.iter
    (fun ((row : Contract.row), snap) ->
      let snap = List.sort compare snap in
      let drifted = plant 1.0 snap in
      let key = fst (List.hd snap) in
      let fails what jobs1 jobs2 snapshot =
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s is reported" (Contract.name row) what)
          true
          (List.exists
             (fun f -> String.starts_with ~prefix:(key ^ ":") f)
             (verify row ~jobs1 ~jobs2 ~snapshot))
      in
      fails "run drifted from the snapshot" drifted drifted snap;
      fails "snapshot drifted from the run" snap snap drifted;
      fails "jobs 2 disagreeing with jobs 1" snap drifted snap;
      fails "a missing metric" (List.tl snap) (List.tl snap) snap)
    snapshot_rows

let test_floor_breach_fails () =
  let row =
    List.find (fun (r : Contract.row) -> r.experiments = [ "e15" ]) Contract.rows
  in
  let snap = Option.get (load row) in
  let breached =
    List.map
      (fun (k, v) -> if k = "e15_traffic_reduction_default" then (k, 1.0) else (k, v))
      snap
  in
  match verify row ~jobs1:breached ~jobs2:breached ~snapshot:breached with
  | [ f ] ->
    Alcotest.(check string) "the floor is reported"
      "e15_traffic_reduction_default = 1, want >= 1.3" f
  | fs -> Alcotest.failf "expected one floor failure, got [%s]" (String.concat "; " fs)

let test_unpinned_row_needs_metrics () =
  let row = List.find (fun (r : Contract.row) -> r.snapshot = None) Contract.rows in
  Alcotest.(check (list string)) "an empty run fails" [ "no metrics recorded" ]
    (Contract.verify row ~jobs1:[] ~jobs2:[] ~snapshot:None)

let () =
  Alcotest.run "contract"
    [
      ( "contract",
        [
          Alcotest.test_case "snapshots pass" `Quick test_snapshots_pass;
          Alcotest.test_case "planted drift fails" `Quick test_planted_drift_fails;
          Alcotest.test_case "floor breach fails" `Quick test_floor_breach_fails;
          Alcotest.test_case "unpinned row needs metrics" `Quick
            test_unpinned_row_needs_metrics;
        ] );
    ]
