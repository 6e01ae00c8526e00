(* One named measurement with its unit, and the JSON the benchmark prints. *)

type t = { name : string; value : float; unit : string }

let v name unit value = { name; value; unit }
let count name n = v name "count" (float_of_int n)

(* Every digit: a value printed here must read back as the same float. *)
let number_to_string x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let quote s = "\"" ^ String.escaped s ^ "\""

let to_json metrics =
  "{"
  ^ String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (quote m.name)
             (number_to_string m.value) (quote m.unit))
         metrics)
  ^ "}"

let find name metrics = List.find_opt (fun m -> String.equal m.name name) metrics
