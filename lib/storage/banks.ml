type policy = Unified | Partitioned of { write_banks : int }
type purpose = Fresh_write | Clean_out | Cold_load

let policy_name = function
  | Unified -> "unified"
  | Partitioned { write_banks } -> Printf.sprintf "partitioned(%d)" write_banks

let pp_policy ppf p = Fmt.string ppf (policy_name p)

let validate policy ~nbanks =
  match policy with
  | Unified -> Ok ()
  | Partitioned { write_banks } ->
    if write_banks < 1 then Error "write_banks must be >= 1"
    else if write_banks >= nbanks then
      Error
        (Printf.sprintf "write_banks (%d) must leave a read-mostly bank (nbanks = %d)"
           write_banks nbanks)
    else Ok ()

let probe_label ?card ?bank metric =
  let base =
    match card with
    | None -> "storage.manager"
    | Some c -> Printf.sprintf "storage.card%d" c
  in
  match bank with
  | None -> base ^ "." ^ metric
  | Some b -> Printf.sprintf "%s.bank%d.%s" base b metric

let first_bank policy purpose =
  match (policy, purpose) with
  | Partitioned { write_banks }, (Clean_out | Cold_load) -> write_banks
  | Unified, _ | Partitioned _, Fresh_write -> 0

let end_bank policy ~nbanks purpose =
  match (policy, purpose) with
  | Partitioned { write_banks }, Fresh_write -> write_banks
  | Unified, _ | Partitioned _, (Clean_out | Cold_load) -> nbanks

let allowed policy ~nbanks purpose ~bank =
  if bank < 0 || bank >= nbanks then invalid_arg "Banks.allowed: bank out of range";
  bank >= first_bank policy purpose && bank < end_bank policy ~nbanks purpose
