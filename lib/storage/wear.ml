(* [Storage.Array] (the card array) would shadow the stdlib's here. *)
module Array = Stdlib.Array

type policy = None_ | Dynamic | Static of { spread_threshold : int }

let policy_name = function
  | None_ -> "none"
  | Dynamic -> "dynamic"
  | Static { spread_threshold } -> Printf.sprintf "static(%d)" spread_threshold

let pp_policy ppf p = Fmt.string ppf (policy_name p)

type evenness = {
  min_erases : int;
  max_erases : int;
  mean_erases : float;
  stddev_erases : float;
}

(* The counts are small (bounded by endurance, ~1e6), so the total and the
   sum of squares are exact ints and the floats are derived from them
   once. *)
let evenness counts =
  let n = Array.length counts in
  if n = 0 then { min_erases = 0; max_erases = 0; mean_erases = 0.0; stddev_erases = 0.0 }
  else begin
    let min_e = ref max_int and max_e = ref min_int in
    let total = ref 0 and sum_sq = ref 0 in
    for i = 0 to n - 1 do
      let c = counts.(i) in
      if c < !min_e then min_e := c;
      if c > !max_e then max_e := c;
      total := !total + c;
      sum_sq := !sum_sq + (c * c)
    done;
    let nf = float_of_int n in
    let variance =
      if n < 2 then 0.0
      else
        Float.max 0.0
          ((float_of_int !sum_sq -. (float_of_int !total *. float_of_int !total /. nf))
          /. float_of_int (n - 1))
    in
    { min_erases = !min_e; max_erases = !max_e; mean_erases = float_of_int !total /. nf;
      stddev_erases = sqrt variance }
  end

(* Trigger on max - mean rather than max - min: a single segment that
   happens never to erase (an outlier minimum) must not keep forced
   relocation running forever. *)
let spread_exceeds ~max_erases ~total_erases ~segments ~spread_threshold =
  float_of_int max_erases -. (float_of_int total_erases /. float_of_int segments)
  > float_of_int spread_threshold
