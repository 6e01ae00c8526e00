(* The benchmark's command line.  Runs one workload for a time budget and
   prints, as its last line, one JSON object: whether the simulated outputs
   passed the correctness gate, the ops attempted and failed, and the
   metrics BENCHMARK.json declares for the mode (end-to-end with
   [--trace 0], per-layer with [--trace 1]).

     perfbench --workload replay-eng --seed 1 --seconds 10 --trace 0 *)

let workloads = [ Perfbench.Replay.replay_eng; Perfbench.Churn.manager_churn; Perfbench.Replay.array_parity ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let size = ref "full" and spec = ref "BENCHMARK.json" and pins = ref "perfbench/pins.json" in
  let usage = "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME replay-eng | manager-churn | array-parity");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S time budget for the timed passes (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--size", Arg.Set_string size, "full|tiny input size (tiny is for tests)");
      ("--spec", Arg.Set_string spec, "FILE the metric declarations (default BENCHMARK.json)");
      ("--pins", Arg.Set_string pins, "FILE pinned outputs (default perfbench/pins.json)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  let w =
    match List.find_opt (fun (w : Perfbench.Workload.t) -> w.name = !workload) workloads with
    | Some w -> w
    | None -> fail (Printf.sprintf "unknown workload %S\n%s" !workload usage)
  in
  let size_name = !size in
  let size =
    match size_name with
    | "full" -> Perfbench.Workload.Full
    | "tiny" -> Perfbench.Workload.Tiny
    | s -> fail ("unknown size " ^ s)
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  let traced = !trace = 1 in
  match
    let declared = Perfbench.Spec.declared ~file:!spec ~traced in
    let pinned = Perfbench.Spec.pinned ~file:!pins ~workload:w.name ~size:size_name ~seed:!seed in
    (declared, pinned)
  with
  | exception (Sys_error e | Failure e) -> fail e
  | declared, pinned ->
    let r =
      Perfbench.Harness.run w ~seed:!seed ~size ~seconds:!seconds ~traced ~pinned
        ~log:print_endline
    in
    let r = Perfbench.Spec.conform r ~declared in
    List.iter (fun e -> print_endline ("gate: " ^ e)) r.errors;
    print_endline ("pin: " ^ Perfbench.Spec.pin_json r);
    print_endline (Perfbench.Harness.to_json r);
    exit (if r.correct then 0 else 1)
