(* The Domain pool's contract: observational equivalence with List.map at
   every job count, submission-order results, deterministic failures, and
   end-to-end equivalence of a pooled experiment sweep. *)
open Sim

let job_counts = [ 1; 2; 3; 4; 8 ]

(* A work function with per-item randomness derived the way pool clients
   are told to: an index-keyed split, no shared generator. *)
let keyed_work base_seed i =
  let rng = Rng.split_ix (Rng.create ~seed:base_seed) ~index:i in
  Int64.to_int (Int64.logand (Rng.bits64 rng) 0xFFFFFFL) + i

let test_map_equiv_list_map () =
  let f x = (x * x) - (3 * x) in
  List.iter
    (fun n ->
      let items = List.init n (fun i -> i - 7) in
      let expect = List.map f items in
      List.iter
        (fun jobs ->
          Alcotest.(check (list int))
            (Printf.sprintf "map n=%d jobs=%d" n jobs)
            expect
            (Pool.run_map ~jobs f items))
        job_counts)
    [ 0; 1; 2; 5; 64; 257 ]

let test_mapi_order () =
  (* Early items take longest, so with several domains later items finish
     first; each result must still land at its submission index. *)
  let spin i =
    let acc = ref i in
    for k = 1 to (100 - i) * 200 do
      acc := (!acc * 31) + k
    done;
    ignore (Sys.opaque_identity !acc);
    (i, 100 - i)
  in
  let items = List.init 100 Fun.id in
  List.iter
    (fun jobs ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "results keep submission order, jobs=%d" jobs)
        (List.map (fun i -> (i, 100 - i)) items)
        (Pool.run_map ~jobs spin items))
    job_counts

exception Boom of int

let test_first_failure_wins () =
  (* Items 5 and 23 both fail; every job count must re-raise index 5's. *)
  let f x = if x = 5 || x = 23 then raise (Boom x) else x in
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "first failure, jobs=%d" jobs)
        (Boom 5)
        (fun () -> ignore (Pool.run_map ~jobs f (List.init 40 Fun.id))))
    job_counts

let test_pool_reuse () =
  (* One ambient pool across many batches, interleaved sizes; the default
     job count it was sized by is restored afterwards. *)
  let previous = Pool.default_jobs () in
  Pool.set_default_jobs 4;
  Fun.protect
    ~finally:(fun () -> Pool.set_default_jobs previous)
    (fun () ->
      List.iter
        (fun n ->
          let items = List.init n (fun i -> keyed_work 53 i) in
          Alcotest.(check (list int))
            (Printf.sprintf "batch n=%d" n)
            (List.map succ items) (Pool.run_map succ items))
        [ 64; 1; 0; 31; 128; 3 ])

let prop_map_matches_all_job_counts =
  QCheck.Test.make ~name:"pool: map ≡ List.map at jobs 1 and 4" ~count:50
    QCheck.(pair small_int (small_list int))
    (fun (salt, items) ->
      let f x = (x * 31) + salt in
      let expect = List.map f items in
      Pool.run_map ~jobs:1 f items = expect && Pool.run_map ~jobs:4 f items = expect)

(* End-to-end: a pooled experiment sweep is byte-identical at any job
   count, including the point records' floats. *)
let test_sweep_job_count_equivalence () =
  let sweep jobs =
    Ssmc.Sizing.sweep ~budget_dollars:800.0 ~fractions:[ 0.1; 0.3; 0.5 ]
      ~duration:(Time.span_s 20.0) ~jobs
      ~profile:{ Trace.Workloads.pim with Trace.Synth.population = 25 }
      ()
  in
  let sequential = sweep 1 in
  Alcotest.(check int) "three points" 3 (List.length sequential);
  List.iter
    (fun jobs ->
      (* Polymorphic compare: float fields must match bit-for-bit (nan
         compares equal to itself here, which is what we want for
         out-of-space points). *)
      Alcotest.(check bool)
        (Printf.sprintf "sweep jobs=%d ≡ jobs=1" jobs)
        true
        (Stdlib.compare sequential (sweep jobs) = 0))
    [ 2; 3; 8 ]

let suite =
  [
    Alcotest.test_case "map ≡ List.map" `Quick test_map_equiv_list_map;
    Alcotest.test_case "mapi order" `Quick test_mapi_order;
    Alcotest.test_case "first failure wins" `Quick test_first_failure_wins;
    Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
    QCheck_alcotest.to_alcotest prop_map_matches_all_job_counts;
    Alcotest.test_case "sweep equivalence across job counts" `Slow
      test_sweep_job_count_equivalence;
  ]
