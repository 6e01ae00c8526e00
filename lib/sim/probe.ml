(* The observability registry.

   The fast path is the disabled one: every recording entry point loads one
   atomic flag and branches away, so instrumentation can sit on simulator
   hot paths permanently (test_probe.ml holds it: dormant calls allocate
   nothing, and a replay makes a bounded number of them per record).

   When enabled, each domain accumulates into its own DLS-held state — no
   locks, no sharing, no cross-domain interference — and registers that
   state once in a global list so [snapshot_all]/[reset_all] can merge or
   clear everything when the harness knows all workers are idle. *)

(* A handle interns its name into a process-wide dense id when it is
   created (module-load time in practice).  Recording through a handle
   resolves id -> per-domain cell by array index: the enabled path costs
   an array load and a tag check, never a string hash.  The intern table
   is only touched at handle creation and snapshot time, both cold. *)
type handle = { id : int; h_name : string }

type counter = handle
type summary = handle
type histogram = handle

let intern_mu = Mutex.create ()
let intern_ids : (string, int) Hashtbl.t = Hashtbl.create 64
let intern_names : string array ref = ref (Array.make 64 "")
let intern_count = ref 0

let handle name =
  Mutex.lock intern_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock intern_mu)
    (fun () ->
      match Hashtbl.find_opt intern_ids name with
      | Some id -> { id; h_name = name }
      | None ->
        let id = !intern_count in
        incr intern_count;
        if id >= Array.length !intern_names then begin
          let bigger = Array.make (2 * Array.length !intern_names) "" in
          Array.blit !intern_names 0 bigger 0 id;
          intern_names := bigger
        end;
        !intern_names.(id) <- name;
        Hashtbl.add intern_ids name id;
        { id; h_name = name })

(* The name for a dense id, for snapshots.  Taken under the intern mutex:
   ids below [intern_count] are fully published once the lock is held. *)
let name_of_id id =
  Mutex.lock intern_mu;
  let n = !intern_names.(id) in
  Mutex.unlock intern_mu;
  n

let counter = handle
let summary = handle
let histogram = handle

let metrics_on = Atomic.make false
let timeline_on = Atomic.make false
let metrics_enabled () = Atomic.get metrics_on
let set_metrics b = Atomic.set metrics_on b
let timeline_enabled () = Atomic.get timeline_on
let set_timeline b = Atomic.set timeline_on b

type ccell = { mutable c : int }

type scell = {
  mutable n : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
}

type cell =
  | Empty  (** Slot allocated but this domain never touched the metric. *)
  | Ccell of ccell
  | Scell of scell
  | Hcell of Stat.Histogram.t

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ts_ns : int;
  ev_dur_ns : int option;
  ev_tid : int;
  ev_args : (string * string) list;
}

(* Events are kept newest-first; [Timeline.events] reverses and sorts.  The
   cap bounds memory on pathological runs; overflow is counted, not silent. *)
let max_events = 2_000_000

type state = {
  mutable cells : cell array;  (** Indexed by handle id. *)
  mutable events : event list;
  mutable nevents : int;
  mutable dropped : int;
}

let registry : state list ref = ref []
let registry_mu = Mutex.create ()

let dls_key =
  Domain.DLS.new_key (fun () ->
      let st =
        { cells = Array.make 64 Empty; events = []; nevents = 0; dropped = 0 }
      in
      Mutex.lock registry_mu;
      registry := st :: !registry;
      Mutex.unlock registry_mu;
      st)

let state () = Domain.DLS.get dls_key

(* A name is expected to keep one kind for the whole process; a clash is an
   instrumentation bug and fails loudly rather than miscounting. *)
let kind_clash name =
  invalid_arg (Printf.sprintf "Probe: metric %S used with two kinds" name)

let[@inline never] grow_cells st id =
  let bigger = Array.make (Stdlib.max (2 * Array.length st.cells) (id + 1)) Empty in
  Array.blit st.cells 0 bigger 0 (Array.length st.cells);
  st.cells <- bigger

let slot st (h : handle) =
  if h.id >= Array.length st.cells then grow_cells st h.id;
  Array.unsafe_get st.cells h.id

let ccell st (h : counter) =
  match slot st h with
  | Ccell c -> c
  | Empty ->
    let c = { c = 0 } in
    st.cells.(h.id) <- Ccell c;
    c
  | _ -> kind_clash h.h_name

let scell st (h : summary) =
  match slot st h with
  | Scell s -> s
  | Empty ->
    let s = { n = 0; sum = 0.0; vmin = infinity; vmax = neg_infinity } in
    st.cells.(h.id) <- Scell s;
    s
  | _ -> kind_clash h.h_name

let hcell st (h : histogram) =
  match slot st h with
  | Hcell hist -> hist
  | Empty ->
    let hist = Stat.Histogram.create () in
    st.cells.(h.id) <- Hcell hist;
    hist
  | _ -> kind_clash h.h_name

let incr h =
  if Atomic.get metrics_on then begin
    let c = ccell (state ()) h in
    c.c <- c.c + 1
  end

let add h k =
  if Atomic.get metrics_on then begin
    let c = ccell (state ()) h in
    c.c <- c.c + k
  end

let observe h v =
  if Atomic.get metrics_on then begin
    let s = scell (state ()) h in
    s.n <- s.n + 1;
    s.sum <- s.sum +. v;
    if v < s.vmin then s.vmin <- v;
    if v > s.vmax then s.vmax <- v
  end

let observe_hist h v =
  if Atomic.get metrics_on then
    Stat.Histogram.observe (hcell (state ()) h) v

let push_event st ev =
  if st.nevents >= max_events then st.dropped <- st.dropped + 1
  else begin
    st.events <- ev :: st.events;
    st.nevents <- st.nevents + 1
  end

let span ~name ~cat ?(tid = 0) ?(args = []) ~start ~finish () =
  if Atomic.get timeline_on then begin
    if Time.(finish < start) then
      invalid_arg "Probe.span: finish precedes start";
    push_event (state ())
      {
        ev_name = name;
        ev_cat = cat;
        ev_ts_ns = Time.to_ns start;
        ev_dur_ns = Some (Time.to_ns finish - Time.to_ns start);
        ev_tid = tid;
        ev_args = args;
      }
  end

let instant ~name ~cat ?(tid = 0) ?(args = []) ~at () =
  if Atomic.get timeline_on then
    push_event (state ())
      {
        ev_name = name;
        ev_cat = cat;
        ev_ts_ns = Time.to_ns at;
        ev_dur_ns = None;
        ev_tid = tid;
        ev_args = args;
      }

module Snapshot = struct
  type value =
    | Counter of int
    | Summary of { n : int; sum : float; vmin : float; vmax : float }
    | Histogram of (float * float * int) list

  type t = (string * value) list

  let empty = []
  let find t name = List.assoc_opt name t

  let counter_value t name =
    match find t name with Some (Counter n) -> n | _ -> 0

  (* Both operands' bucket lists are ascending by [lo] (Histogram.buckets);
     a plain two-pointer merge keeps the result ascending and exact. *)
  let merge_buckets a b =
    let rec go a b =
      match (a, b) with
      | [], rest | rest, [] -> rest
      | ((alo, ahi, ac) as ha) :: ta, ((blo, _, bc) as hb) :: tb ->
        if alo = blo then (alo, ahi, ac + bc) :: go ta tb
        else if alo < blo then ha :: go ta (hb :: tb)
        else hb :: go (ha :: ta) tb
    in
    go a b

  let sub_buckets later earlier =
    let rec go a b =
      match (a, b) with
      | rest, [] -> rest
      | [], _ -> []
      | ((alo, ahi, ac) as ha) :: ta, (blo, _, bc) :: tb ->
        if alo = blo then
          let d = Stdlib.max 0 (ac - bc) in
          if d = 0 then go ta tb else (alo, ahi, d) :: go ta tb
        else if alo < blo then ha :: go ta b
        else go a tb
    in
    go later earlier

  let merge_value a b =
    match (a, b) with
    | Counter x, Counter y -> Counter (x + y)
    | Summary a, Summary b ->
      Summary
        {
          n = a.n + b.n;
          sum = a.sum +. b.sum;
          vmin = Float.min a.vmin b.vmin;
          vmax = Float.max a.vmax b.vmax;
        }
    | Histogram a, Histogram b -> Histogram (merge_buckets a b)
    | _, y -> y

  let merge a b =
    let rec go a b =
      match (a, b) with
      | [], rest | rest, [] -> rest
      | ((ka, va) as ha) :: ta, ((kb, vb) as hb) :: tb ->
        let c = String.compare ka kb in
        if c = 0 then (ka, merge_value va vb) :: go ta tb
        else if c < 0 then ha :: go ta (hb :: tb)
        else hb :: go (ha :: ta) tb
    in
    go a b

  let diff_value later earlier =
    match (later, earlier) with
    | Counter x, Counter y -> Counter (Stdlib.max 0 (x - y))
    | Summary l, Summary e ->
      let n = Stdlib.max 0 (l.n - e.n) in
      Summary
        {
          n;
          sum = (if n = 0 then 0.0 else l.sum -. e.sum);
          vmin = l.vmin;
          vmax = l.vmax;
        }
    | Histogram l, Histogram e -> Histogram (sub_buckets l e)
    | v, _ -> v

  (* Names present only in [earlier] have vanished from the registry (a
     reset happened in between); nothing meaningful can be said about them,
     so the diff covers [later]'s names only. *)
  let diff ~later ~earlier =
    List.map
      (fun (name, v) ->
        match List.assoc_opt name earlier with
        | None -> (name, v)
        | Some e -> (name, diff_value v e))
      later

  let is_zero = function
    | Counter n -> n = 0
    | Summary { n; _ } -> n = 0
    | Histogram buckets -> List.for_all (fun (_, _, c) -> c = 0) buckets

  let to_json t =
    let open Json in
    let value_json = function
      | Counter n -> int n
      | Summary { n; sum; vmin; vmax } ->
        Obj
          [
            ("count", int n);
            ("sum", number sum);
            ("min", if n = 0 then Null else number vmin);
            ("max", if n = 0 then Null else number vmax);
            ("mean", if n = 0 then Null else number (sum /. float_of_int n));
          ]
      | Histogram buckets ->
        let total = List.fold_left (fun acc (_, _, c) -> acc + c) 0 buckets in
        Obj
          [
            ("count", int total);
            ( "buckets",
              List
                (List.map
                   (fun (lo, hi, c) ->
                     Obj
                       [
                         ("lo", number lo); ("hi", number hi); ("count", int c);
                       ])
                   buckets) );
          ]
    in
    Obj (List.map (fun (name, v) -> (name, value_json v)) t)
end

let snapshot_state st =
  let acc = ref [] in
  for id = Array.length st.cells - 1 downto 0 do
    match st.cells.(id) with
    | Empty -> ()
    | cell ->
      let v =
        match cell with
        | Empty -> assert false
        | Ccell { c } -> Snapshot.Counter c
        | Scell { n; sum; vmin; vmax } -> Snapshot.Summary { n; sum; vmin; vmax }
        | Hcell h -> Snapshot.Histogram (Stat.Histogram.buckets h)
      in
      acc := (name_of_id id, v) :: !acc
  done;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let snapshot () = snapshot_state (state ())

let reset_state st =
  Array.fill st.cells 0 (Array.length st.cells) Empty;
  st.events <- [];
  st.nevents <- 0;
  st.dropped <- 0

let reset () = reset_state (state ())

let with_registry f =
  Mutex.lock registry_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mu) (fun () ->
      f !registry)

let snapshot_all () =
  with_registry (fun states ->
      List.fold_left
        (fun acc st -> Snapshot.merge acc (snapshot_state st))
        Snapshot.empty states)

let reset_all () = with_registry (List.iter reset_state)

module Timeline = struct
  type nonrec event = event = {
    ev_name : string;
    ev_cat : string;
    ev_ts_ns : int;
    ev_dur_ns : int option;
    ev_tid : int;
    ev_args : (string * string) list;
  }

  let sort_events evs =
    List.stable_sort (fun a b -> compare a.ev_ts_ns b.ev_ts_ns) evs

  let events () = sort_events (List.rev (state ()).events)

  let events_all () =
    with_registry (fun states ->
        sort_events
          (List.concat_map (fun st -> List.rev st.events) states))

  let dropped () =
    with_registry
      (List.fold_left (fun acc st -> acc + st.dropped) 0)

  let to_chrome_json evs =
    let open Json in
    let ev_json e =
      let head =
        [
          ("name", String e.ev_name);
          ("cat", String e.ev_cat);
          ("ts", number (float_of_int e.ev_ts_ns /. 1e3));
          ("pid", int 1);
          ("tid", int e.ev_tid);
        ]
      in
      let phase =
        match e.ev_dur_ns with
        | Some d ->
          [ ("ph", String "X"); ("dur", number (float_of_int d /. 1e3)) ]
        | None -> [ ("ph", String "i"); ("s", String "g") ]
      in
      let args =
        match e.ev_args with
        | [] -> []
        | kvs -> [ ("args", Obj (List.map (fun (k, v) -> (k, String v)) kvs)) ]
      in
      Obj (head @ phase @ args)
    in
    Obj
      [
        ("traceEvents", List (List.map ev_json evs));
        ("displayTimeUnit", String "ms");
      ]
end
