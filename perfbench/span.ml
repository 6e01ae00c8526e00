(* Outside-in spans: the benchmark wraps its own calls into a layer's
   public functions and records, per call, the host time spent inside and
   the minor-heap words the call allocated.  Both readings are taken
   immediately around the call, so the span's own bookkeeping is never
   charged to the layer. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now_s () = float_of_int (now_ns ()) *. 1e-9

type t = {
  mutable calls : int;
  ns : Samples.t;  (** Host ns per call. *)
  mutable total_ns : int;
  mutable words : float;  (** Minor words over all calls. *)
}

let create () = { calls = 0; ns = Samples.create (); total_ns = 0; words = 0.0 }

let time t f =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  t.calls <- t.calls + 1;
  t.total_ns <- t.total_ns + (t1 - t0);
  Samples.add t.ns (float_of_int (t1 - t0));
  t.words <- t.words +. (w1 -. w0);
  r

let host_s t = float_of_int t.total_ns *. 1e-9
let words_per_call t = if t.calls = 0 then 0.0 else t.words /. float_of_int t.calls

(* The per-call profile of one wrapped function: call count, host-time
   median and p99, and minor words per call. *)
let profile prefix t =
  let sorted = Samples.sorted t.ns in
  [
    Metric.count (prefix ^ ".calls") t.calls;
    Metric.v (prefix ^ ".host_ns_p50") "ns" (Samples.quantile_of_sorted sorted 0.5);
    Metric.v (prefix ^ ".host_ns_p99") "ns" (Samples.quantile_of_sorted sorted 0.99);
    Metric.v (prefix ^ ".minor_words") "words" (words_per_call t);
  ]

(* The profile of functions a workload never calls: zero calls. *)
let absent prefixes = List.concat_map (fun p -> profile p (create ())) prefixes
