(* The harness's pinned contracts, as data.  Each row names experiments
   whose headline metrics are simulated quantities: deterministic, so they
   must be byte-identical at any job count, equal to a checked-in QUICK
   snapshot where the row has one, and within the row's floors.
   [main.exe --check] runs every row at --jobs 1 and 2 and feeds the two
   metric lists through [verify]; [dune runtest] runs it.

   Probe snapshots are not compared: [Machine.preload] resets the
   domain-local registry, so what a pooled experiment's probes hold depends
   on which domain ran which point. *)

type metrics = (string * float) list

(* A floor on one metric, or — when [metric] ends in '*' — on every metric
   with that prefix (at least one must exist). *)
type bound = At_least of float | Above of float | Exactly of float
type floor = { metric : string; bound : bound }

type row = {
  experiments : string list;  (** Run in this order, in one pass. *)
  prefixes : string list;  (** The deterministic metrics' name prefixes. *)
  snapshot : string option;  (** Pinned values, relative to the repo root. *)
  floors : floor list;
}

let row ?snapshot ?(floors = []) experiments prefixes =
  { experiments; prefixes; snapshot; floors }

let floor metric bound = { metric; bound }

let rows =
  [
    (* Section 3.3's headline: 1MB of battery-backed buffer cuts write
       traffic by 40-50%, and restarting a block's deadline on rewrite —
       how hot blocks stay in DRAM — adds to the cut. *)
    row [ "e6" ] [ "e6_" ] ~snapshot:"bench/e6-quick.snapshot.json"
      ~floors:
        [
          floor "e6_reduction_1024k" (At_least 0.40);
          floor "e6_refresh_gain" (Above 0.0);
        ];
    row [ "e7"; "e8" ] [ "e7_"; "e8_" ] ~snapshot:"bench/e7e8-quick.snapshot.json";
    (* E9 has no snapshot: its pin is job-count invariance. *)
    row [ "e9" ] [ "e9_" ];
    row [ "e11" ] [ "e11_" ] ~snapshot:"bench/e11-quick.snapshot.json";
    row [ "e12" ] [ "e12_" ] ~snapshot:"bench/e12-quick.snapshot.json";
    (* Per-card queues decouple the cards, and one card through the array
       surface is the bare single-manager path. *)
    row [ "e13" ] [ "e13_" ] ~snapshot:"bench/e13-quick.snapshot.json"
      ~floors:
        [
          floor "e13_read_scaling_4v1" (At_least 2.0);
          floor "e13_cards1_equiv" (Exactly 1.0);
        ];
    (* A surprise eject loses nothing under parity, bought with a real
       flush premium, and the namespace reads the same across the degraded
       window. *)
    row [ "e14" ] [ "e14_" ] ~snapshot:"bench/e14-quick.snapshot.json"
      ~floors:
        [
          floor "e14_survival_*" (Exactly 1.0);
          floor "e14_lost_buffered_*" (Exactly 0.0);
          floor "e14_flush_penalty_3c" (Above 1.0);
          floor "e14_degraded_fs_equiv" (Exactly 1.0);
        ];
    (* Diff logging cuts flash traffic on overwrite churn, and the merge
       threshold trades traffic against read latency monotonically. *)
    row [ "e15" ] [ "e15_" ] ~snapshot:"bench/e15-quick.snapshot.json"
      ~floors:
        [
          floor "e15_traffic_reduction_default" (At_least 1.3);
          floor "e15_tradeoff_monotone" (Exactly 1.0);
        ];
  ]

let name row = String.concat "+" row.experiments

(* The row's deterministic metrics. *)
let pinned row (metrics : metrics) =
  List.filter
    (fun (k, _) -> List.exists (fun prefix -> String.starts_with ~prefix k) row.prefixes)
    metrics

let load_snapshot path : (metrics, string) result =
  match Sim.Json.of_string (In_channel.with_open_text path In_channel.input_all) with
  | exception Sys_error e -> Error e
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok (Sim.Json.Obj fields) ->
    List.fold_right
      (fun (k, v) acc ->
        match (v, acc) with
        | Sim.Json.Number x, Ok l -> Ok ((k, x) :: l)
        | _, Error e -> Error e
        | _, Ok _ -> Error (Printf.sprintf "%s: %s is not a number" path k))
      fields (Ok [])
  | Ok _ -> Error (path ^ ": not a JSON object")

(* Values compare as the --json output renders them (%.6g), which is what
   the snapshots hold. *)
let render v = Sim.Json.to_string (Sim.Json.number v)

let mismatches ~left ~right (a : metrics) (b : metrics) =
  let keys = List.sort_uniq compare (List.map fst a @ List.map fst b) in
  List.filter_map
    (fun k ->
      let show m = match List.assoc_opt k m with Some v -> render v | None -> "absent" in
      let va = show a and vb = show b in
      if va = vb then None else Some (Printf.sprintf "%s: %s=%s %s=%s" k left va right vb))
    keys

let holds bound v =
  match bound with At_least x -> v >= x | Above x -> v > x | Exactly x -> v = x

let pp_bound = function
  | At_least x -> ">= " ^ render x
  | Above x -> "> " ^ render x
  | Exactly x -> "= " ^ render x

let floor_failures floors (m : metrics) =
  List.concat_map
    (fun { metric; bound } ->
      let n = String.length metric in
      let hits =
        if n > 0 && metric.[n - 1] = '*' then
          let prefix = String.sub metric 0 (n - 1) in
          List.filter (fun (k, _) -> String.starts_with ~prefix k) m
        else List.filter (fun (k, _) -> k = metric) m
      in
      if hits = [] then [ Printf.sprintf "%s: no such metric" metric ]
      else
        List.filter_map
          (fun (k, v) ->
            if holds bound v then None
            else Some (Printf.sprintf "%s = %s, want %s" k (render v) (pp_bound bound)))
          hits)
    floors

(* Every way a row's two runs break its contract; [] when it holds. *)
let verify row ~jobs1 ~jobs2 ~snapshot =
  let j1 = pinned row jobs1 and j2 = pinned row jobs2 in
  if j1 = [] then [ "no metrics recorded" ]
  else
    mismatches ~left:"jobs1" ~right:"jobs2" j1 j2
    @ (match snapshot with
      | None -> []
      | Some (Error e) -> [ e ]
      | Some (Ok snap) -> mismatches ~left:"run" ~right:"snapshot" j1 snap)
    @ floor_failures row.floors j1
