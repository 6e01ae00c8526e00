module Int_map = Map.Make (Int)

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

(* Running wear statistics over the segments' erase counts, kept in exact
   integer form: the counts are small (bounded by endurance, ~1e6) so the
   total and the sum of squares fit an int with headroom, and integer sums
   are order-independent — an accumulator maintained incrementally (one
   [bump] per segment cleaning) holds byte-for-byte the same values as one
   folded over the array.  [evenness_of_acc] is the single place the
   floats are derived, so the scan and the incremental paths can never
   disagree in the low bits.  The min (which can move when the least-worn
   segment is erased) comes from a count-per-erase-level map. *)
type acc = {
  mutable count : int;
  mutable total : int;
  mutable sum_sq : int;
  mutable levels : int Int_map.t;  (** erase count -> number of segments *)
}

let acc_create () = { count = 0; total = 0; sum_sq = 0; levels = Int_map.empty }

let acc_clear a =
  a.count <- 0;
  a.total <- 0;
  a.sum_sq <- 0;
  a.levels <- Int_map.empty

let level_incr levels c =
  Int_map.update c (function None -> Some 1 | Some n -> Some (n + 1)) levels

let level_decr levels c =
  Int_map.update c
    (function
      | None | Some 1 -> None
      | Some n -> Some (n - 1))
    levels

let acc_add a c =
  a.count <- a.count + 1;
  a.total <- a.total + c;
  a.sum_sq <- a.sum_sq + (c * c);
  a.levels <- level_incr a.levels c

let acc_bump a ~old_count ~new_count =
  a.total <- a.total + new_count - old_count;
  a.sum_sq <- a.sum_sq + (new_count * new_count) - (old_count * old_count);
  a.levels <- level_incr (level_decr a.levels old_count) new_count

let evenness_of_acc a =
  if a.count = 0 then
    { min_erases = 0; max_erases = 0; mean_erases = 0.0; stddev_erases = 0.0 }
  else begin
    let min_e, _ = Int_map.min_binding a.levels in
    let max_e, _ = Int_map.max_binding a.levels in
    let n = float_of_int a.count in
    let mean = float_of_int a.total /. n in
    let variance =
      if a.count < 2 then 0.0
      else
        Float.max 0.0
          ((float_of_int a.sum_sq -. (float_of_int a.total *. float_of_int a.total /. n))
          /. float_of_int (a.count - 1))
    in
    { min_erases = min_e; max_erases = max_e; mean_erases = mean;
      stddev_erases = sqrt variance }
  end

(* Trigger on max - mean rather than max - min: a single segment that
   happens never to erase (an outlier minimum) must not keep forced
   relocation running forever. *)
let spread_exceeds e ~spread_threshold =
  float_of_int e.max_erases -. e.mean_erases > float_of_int spread_threshold
