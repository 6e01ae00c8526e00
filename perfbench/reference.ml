(* The host-speed reference.  On a shared host the same pass ran up to 1.6x
   slower for minutes at a time, far beyond any regression bound, and the
   slowdown hit every piece of OCaml code alike: timed in 30 s windows
   beside a replay, this fixed kernel tracked the replay with correlation
   0.98, and their ratio moved 11% while each moved 54%.  So a run times
   the kernel before every pass and scales its host-time metrics to a host
   on which the kernel takes [nominal_s].

   The kernel uses only the standard library — hashing, small-block
   allocation, pointer chasing and a sort — so no change to the simulator
   can speed it up.  It must never change: every scaled figure is relative
   to it. *)

let nominal_s = 0.15

let kernel () =
  let n = 200_000 in
  let h = Hashtbl.create 1024 in
  for i = 0 to n do
    Hashtbl.replace h ((i * 7919) land 0xFFFFF) (Array.make 4 i)
  done;
  let hits = ref 0 in
  for i = 0 to n do
    match Hashtbl.find_opt h ((i * 31) land 0xFFFFF) with
    | Some a -> hits := !hits + a.(0)
    | None -> ()
  done;
  let sorted = List.sort compare (List.init n (fun i -> (i * 48271) mod 65521)) in
  !hits + List.length sorted

(* Host seconds of one kernel run, from a compacted heap. *)
let time () =
  Gc.compact ();
  let t0 = Span.now_s () in
  ignore (Sys.opaque_identity (kernel ()));
  Span.now_s () -. t0
