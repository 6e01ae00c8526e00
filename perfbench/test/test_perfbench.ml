(* The benchmark's own tests, at the tiny input size: every run prints
   exactly the metrics BENCHMARK.json declares, with their units, and
   passes its correctness gate; a planted mismatch against the pins fails
   the gate. *)

open Perfbench

let spec = "../../BENCHMARK.json"
let pins = "../pins.json"
let workloads = [ Replay.replay_eng; Churn.manager_churn; Replay.array_parity ]

let tiny_run ?pinned (w : Workload.t) ~traced =
  let pinned =
    match pinned with
    | Some p -> p
    | None -> Spec.pinned ~file:pins ~workload:w.name ~size:"tiny" ~seed:1
  in
  Harness.run w ~seed:1 ~size:Workload.Tiny ~seconds:0.0 ~traced ~pinned ~log:ignore
  |> Spec.conform ~declared:(Spec.declared ~file:spec ~traced)

let emits_declared (w : Workload.t) ~traced () =
  let r = tiny_run w ~traced in
  Alcotest.(check (list string)) "gate errors" [] r.errors;
  Alcotest.(check (list (pair string string)))
    "metrics and units"
    (Spec.declared ~file:spec ~traced)
    (List.map (fun (m : Metric.t) -> (m.name, m.unit)) r.metrics);
  Alcotest.(check bool) "attempted" true (r.attempted > 0)

let planted (w : Workload.t) ~plant () =
  let pinned =
    match Spec.pinned ~file:pins ~workload:w.name ~size:"tiny" ~seed:1 with
    | Harness.Pinned (digest, values) -> plant digest values
    | Harness.Unpinned | Harness.Missing -> Alcotest.fail "no tiny pin at seed 1"
  in
  let r = tiny_run ~pinned w ~traced:false in
  Alcotest.(check bool) "gate fails" false r.correct

let digest_mismatch =
  planted ~plant:(fun digest values ->
      Harness.Pinned (String.map (fun c -> if c = '0' then '1' else '0') digest, values))

let value_mismatch =
  planted ~plant:(fun digest values ->
      Harness.Pinned
        (digest, List.map (fun (name, v) -> if name = "sim_write_amp" then (name, v +. 1e-9) else (name, v)) values))

let () =
  Alcotest.run "perfbench"
    [
      ( "metrics",
        List.concat_map
          (fun (w : Workload.t) ->
            [
              Alcotest.test_case (w.name ^ " end-to-end") `Quick (emits_declared w ~traced:false);
              Alcotest.test_case (w.name ^ " per-layer") `Quick (emits_declared w ~traced:true);
            ])
          workloads );
      ( "gate",
        List.concat_map
          (fun (w : Workload.t) ->
            [
              Alcotest.test_case (w.name ^ " planted digest mismatch") `Quick (digest_mismatch w);
              Alcotest.test_case (w.name ^ " planted value mismatch") `Quick (value_mismatch w);
            ])
          workloads );
    ]
