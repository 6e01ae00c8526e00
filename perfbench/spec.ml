(* The benchmark's contracts, read as data: the metric names and units
   BENCHMARK.json declares, and the outputs pinned at the default seed in
   pins.json. *)

module Json = Sim.Json

let read file =
  match Json.of_string (In_channel.with_open_bin file In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (file ^ ": " ^ e)

let string_member key j =
  match Json.member key j with Some (Json.String s) -> s | _ -> failwith ("missing " ^ key)

(* [(name, unit)] of every metric the mode must print, in declared order. *)
let declared ~file ~traced =
  match Json.member (if traced then "per_layer" else "end_to_end") (read file) with
  | Some (Json.List items) ->
    List.map (fun it -> (string_member "name" it, string_member "unit" it)) items
  | _ -> failwith (file ^ ": no metric list")

(* pins.json: {"seed": 1, "<workload>": {"<size>": {"digest": ..., "values":
   {name: number}}}}.  Seeds other than the pinned one are unpinned. *)
let pinned ~file ~workload ~size ~seed =
  let j = read file in
  match Json.member "seed" j with
  | Some (Json.Number s) when int_of_float s <> seed -> Harness.Unpinned
  | _ -> (
    match Option.bind (Json.member workload j) (Json.member size) with
    | None -> Harness.Missing
    | Some entry ->
      let values =
        match Json.member "values" entry with
        | Some (Json.Obj kvs) ->
          List.map
            (function
              | name, Json.Number v -> (name, v) | name, _ -> failwith ("pin " ^ name ^ " is not a number"))
            kvs
        | _ -> failwith (file ^ ": pin without values")
      in
      Harness.Pinned (string_member "digest" entry, values))

(* The declared metrics, in declared order; the run fails when one was not
   measured, was measured in another unit, or is not a finite number. *)
let conform (r : Harness.result) ~declared =
  let problems = ref [] in
  let metrics =
    List.filter_map
      (fun (name, unit) ->
        match Metric.find name r.metrics with
        | Some m when String.equal m.unit unit && Float.is_finite m.value -> Some m
        | Some m when String.equal m.unit unit ->
          problems := Printf.sprintf "%s is not finite" name :: !problems;
          None
        | Some m ->
          problems := Printf.sprintf "%s is in %s, declared %s" name m.unit unit :: !problems;
          None
        | None ->
          problems := Printf.sprintf "%s is declared but not measured" name :: !problems;
          None)
      declared
  in
  let errors = r.errors @ List.rev !problems in
  { r with metrics; errors; correct = errors = [] }

let pin_json (r : Harness.result) =
  Printf.sprintf "{\"digest\": %S, \"values\": {%s}}" r.reference_digest
    (String.concat ", "
       (List.map
          (fun (m : Metric.t) ->
            Printf.sprintf "%S: %s" m.name (Metric.number_to_string m.value))
          r.reference_values))
