(* A fixed-size Domain pool.  Determinism is the design constraint: work is
   handed out by index from an atomic cursor (any worker may compute any
   item), but every result lands in a slot fixed by its submission index,
   so the output never depends on scheduling.  See pool.mli. *)

type task = unit -> unit

type t = {
  jobs : int;
  mutex : Mutex.t;
  has_work : Condition.t;
  pending : task Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

(* --- Sizing ---------------------------------------------------------------- *)

let env_jobs () =
  match Sys.getenv_opt "SSMC_JOBS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> Some j
    | _ -> None)

let configured_jobs = ref None

let default_jobs () =
  match !configured_jobs with
  | Some j -> j
  | None -> (
    match env_jobs () with
    | Some j -> j
    | None -> max 1 (Domain.recommended_domain_count ()))

let set_default_jobs j =
  if j < 1 then invalid_arg "Pool.set_default_jobs: jobs < 1";
  configured_jobs := Some j

(* --- Lifecycle ------------------------------------------------------------- *)

let worker pool () =
  let rec loop () =
    Mutex.lock pool.mutex;
    while (not pool.stop) && Queue.is_empty pool.pending do
      Condition.wait pool.has_work pool.mutex
    done;
    match Queue.take_opt pool.pending with
    | Some task ->
      Mutex.unlock pool.mutex;
      task ();
      loop ()
    | None ->
      (* Stopped and drained. *)
      Mutex.unlock pool.mutex
  in
  loop ()

(* The submitting domain also executes work, so a pool of size [jobs]
   holds [jobs - 1] Domains. *)
let create jobs =
  if jobs < 1 then invalid_arg "Pool.run_map: jobs < 1";
  let pool =
    {
      jobs;
      mutex = Mutex.create ();
      has_work = Condition.create ();
      pending = Queue.create ();
      stop = false;
      workers = [];
    }
  in
  pool.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (worker pool));
  pool

let shutdown t =
  Mutex.lock t.mutex;
  let workers = t.workers in
  t.stop <- true;
  t.workers <- [];
  Condition.broadcast t.has_work;
  Mutex.unlock t.mutex;
  List.iter Domain.join workers

(* --- Mapping ---------------------------------------------------------------- *)

(* [List.map f items] on up to [t.jobs] domains (the caller included),
   returning only when every item is done. *)
let map t f items =
  if t.jobs = 1 || List.compare_length_with items 1 <= 0 then List.map f items
  else begin
    let input = Array.of_list items in
    let n = Array.length input in
    let out = Array.make n None in
    let cursor = Atomic.make 0 in
    let remaining = Atomic.make n in
    let finished = Mutex.create () in
    let all_done = Condition.create () in
    (* First failure by submission index, so re-raising is deterministic. *)
    let failure : (int * exn * Printexc.raw_backtrace) option ref = ref None in
    let record_failure i exn bt =
      Mutex.lock finished;
      (match !failure with
      | Some (j, _, _) when j <= i -> ()
      | _ -> failure := Some (i, exn, bt));
      Mutex.unlock finished
    in
    let work () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add cursor 1 in
        if i >= n then continue := false
        else begin
          (try out.(i) <- Some (f input.(i))
           with exn -> record_failure i exn (Printexc.get_raw_backtrace ()));
          if Atomic.fetch_and_add remaining (-1) = 1 then begin
            Mutex.lock finished;
            Condition.broadcast all_done;
            Mutex.unlock finished
          end
        end
      done
    in
    let helpers = min (t.jobs - 1) (n - 1) in
    Mutex.lock t.mutex;
    for _ = 1 to helpers do
      Queue.push work t.pending
    done;
    Condition.broadcast t.has_work;
    Mutex.unlock t.mutex;
    work ();
    Mutex.lock finished;
    while Atomic.get remaining > 0 do
      Condition.wait all_done finished
    done;
    Mutex.unlock finished;
    match !failure with
    | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None -> Array.to_list (Array.map (function Some v -> v | None -> assert false) out)
  end

(* --- Ambient pool ------------------------------------------------------------- *)

let ambient : t option ref = ref None

let () =
  at_exit (fun () ->
      match !ambient with
      | Some pool ->
        ambient := None;
        shutdown pool
      | None -> ())

let ambient_pool () =
  let want = default_jobs () in
  match !ambient with
  | Some pool when pool.jobs = want -> pool
  | existing ->
    Option.iter shutdown existing;
    let pool = create want in
    ambient := Some pool;
    pool

let run_map ?jobs f items =
  match jobs with
  | None -> map (ambient_pool ()) f items
  | Some 1 -> List.map f items
  | Some j ->
    let pool = create j in
    Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> map pool f items)
