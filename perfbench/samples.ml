(* A growable buffer of float observations with exact nearest-rank
   quantiles.  Adding never allocates except when the buffer doubles, so it
   can sit inside a timed loop. *)

type t = { mutable data : float array; mutable n : int }

let create () = { data = Array.make 1024 0.0; n = 0 }
let count t = t.n

let add t v =
  if t.n = Array.length t.data then begin
    let bigger = Array.make (2 * t.n) 0.0 in
    Array.blit t.data 0 bigger 0 t.n;
    t.data <- bigger
  end;
  Array.unsafe_set t.data t.n v;
  t.n <- t.n + 1

let to_array t = Array.sub t.data 0 t.n

let sorted t =
  let a = to_array t in
  Array.sort Float.compare a;
  a

(* Nearest rank: the smallest observation with at least [q] of the sample
   at or below it.  0 on an empty buffer. *)
let quantile_of_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let quantile t q = quantile_of_sorted (sorted t) q

let median values =
  match values with
  | [] -> invalid_arg "Samples.median: empty"
  | _ ->
    let a = Array.of_list values in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
