(* E13 — striped multi-card storage arrays (extends E8's bank story across
   whole cards).
   Shape to reproduce: with one card, background program/erase traffic
   (flushes and cleaning) holds the card's banks busy and read latency
   collapses into the erase shadow; striping the same workload over N
   independent cards spreads both the writes and the reads, so aggregate
   read throughput scales and the p99 tail drops.  A shared front cache
   over the array serves cross-card hot blocks at DRAM speed without
   touching any card.

   The sweep is card count x strip size x workload; each cell reports
   aggregate read throughput, read p99, and per-card wear/occupancy (the
   occupancy comes from the per-card busy_us probe summaries, i.e. the
   probe-label scheme Banks.probe_label defines for managers and cards
   alike).  A cards=1 cell is also re-run against the raw manager API to
   check the store wrapper adds nothing. *)
open Sim

let nbanks = 4
let flash_bytes_per_card = 2 * Units.mib
let block_bytes = 512
let nstreams = 8

type workload = Erase_heavy | Read_hot

let workload_name = function Erase_heavy -> "erase" | Read_hot -> "readhot"

type cell = { cards : int; strip : int; workload : workload }

let tag { cards; strip; workload } =
  Printf.sprintf "%dc_s%d_%s" cards strip (workload_name workload)

let mgr_cfg () =
  {
    Storage.Manager.default_config with
    Storage.Manager.buffer =
      {
        Storage.Write_buffer.capacity_blocks = 512;
        writeback_delay = Time.span_s 5.0;
        refresh_on_rewrite = false;
      };
  }

(* The measured loop speaks to the store through this record so the same
   driver can run against a [Store.t] and against the raw [Manager.t] API —
   the cards=1 equivalence check below compares the two byte for byte. *)
type ops = {
  alloc : unit -> int;
  load_cold : int -> unit;
  write : int -> unit;
  read_at : at:Time.t -> int -> Time.t;
  flush : unit -> unit;
  reset : unit -> unit;
}

let ops_of_store store =
  {
    alloc = (fun () -> Storage.Store.alloc store);
    load_cold = Storage.Store.load_cold store;
    write = (fun b -> ignore (Storage.Store.write_block store b));
    read_at =
      (let bytes = Storage.Store.block_bytes store in
       fun ~at b -> Storage.Store.read_block_at ~bytes store ~at b);
    flush = (fun () -> ignore (Storage.Store.flush_all store));
    reset = (fun () -> Storage.Store.reset_traffic store);
  }

let ops_of_manager m =
  {
    alloc = (fun () -> Storage.Manager.alloc m);
    load_cold = Storage.Manager.load_cold m;
    write = (fun b -> ignore (Storage.Manager.write_block m b));
    read_at =
      (let bytes = Storage.Manager.block_bytes m in
       fun ~at b -> Storage.Manager.read_block_at ~bytes m ~at b);
    flush = (fun () -> ignore (Storage.Manager.flush_all m));
    reset = (fun () -> Storage.Manager.reset_traffic m);
  }

(* Cold read-mostly data plus a churn set the writer rewrites; [nstreams]
   closed-loop readers each thread their own completion cursor, so reads
   overlap in simulated time and the makespan is the slowest stream's. *)
let drive ~engine ~ops ~workload =
  let cold = Array.init 2048 (fun _ -> ops.alloc ()) in
  let churn = Array.init 1024 (fun _ -> ops.alloc ()) in
  Array.iter ops.load_cold cold;
  Array.iter ops.load_cold churn;
  Engine.run_until engine (Time.add (Engine.now engine) (Time.span_s 60.0));
  ops.reset ();
  let rounds = if Common.quick then 30 else 120 in
  let reads_per_stream = 4 in
  let writes_per_round = match workload with Erase_heavy -> 96 | Read_hot -> 8 in
  let read_set =
    (* Read-hot concentrates on a front-cache-sized hot subset; erase-heavy
       reads spread over all the cold data. *)
    match workload with Erase_heavy -> cold | Read_hot -> Array.sub cold 0 128
  in
  let lat = Stat.Histogram.create () in
  let start = Engine.now engine in
  let cursors = Array.make nstreams start in
  let states = Array.init nstreams (fun i -> 12345 + (i * 7919)) in
  let lcg s = ((s * 1103515245) + 12345) land 0x3FFFFFFF in
  let wstate = ref 999 in
  let reads = ref 0 in
  for _round = 1 to rounds do
    for _ = 1 to writes_per_round do
      wstate := lcg !wstate;
      ops.write churn.(!wstate mod Array.length churn)
    done;
    ops.flush ();
    for _ = 1 to reads_per_stream do
      for i = 0 to nstreams - 1 do
        states.(i) <- lcg states.(i);
        let b = read_set.(states.(i) mod Array.length read_set) in
        let at = Time.max cursors.(i) (Engine.now engine) in
        let fin = ops.read_at ~at b in
        Stat.Histogram.observe lat (Time.span_to_us (Time.diff fin at));
        cursors.(i) <- fin;
        incr reads
      done
    done;
    Engine.run_until engine (Array.fold_left Time.max (Engine.now engine) cursors)
  done;
  let finish = Array.fold_left Time.max start cursors in
  let makespan_us = Time.span_to_us (Time.diff finish start) in
  let tput_mb_s = float_of_int (!reads * block_bytes) /. makespan_us in
  (tput_mb_s, lat, makespan_us)

type point = {
  p_tput_mb_s : float;
  p_lat : Stat.Histogram.t;
  p_occ : float array;  (* Per card: share of the array's total busy time. *)
  p_wear_max : int array;  (* Per card: max sector erase count. *)
  p_front_hits : int;
}

let summary_sum snap name =
  match Probe.Snapshot.find snap name with
  | Some (Probe.Snapshot.Summary { sum; _ }) -> sum
  | _ -> 0.0

let run_point ({ cards; strip; workload } as _cell) =
  let engine = Engine.create () in
  let flashes =
    Array.init cards (fun _ ->
        Device.Flash.create
          (Device.Flash.config ~nbanks ~size_bytes:flash_bytes_per_card ()))
  in
  let dram = Device.Dram.create ~size_bytes:(4 * Units.mib) ~battery_backed:true () in
  let cfg = mgr_cfg () in
  (* Read-hot always mounts the array (even at one card) so the front
     cache is in play; erase-heavy at one card takes the plain
     single-manager path the equivalence check guards. *)
  let front = match workload with Read_hot -> 256 | Erase_heavy -> 0 in
  let arr =
    if cards > 1 || workload = Read_hot then
      Some
        (Storage.Array.create ~front_cache_blocks:front
           ~striping:(Storage.Striping.Round_robin { strip_blocks = strip })
           cfg ~engine ~flashes ~dram)
    else None
  in
  let store =
    match arr with
    | Some a -> Storage.Store.Striped a
    | None ->
      Storage.Store.Single (Storage.Manager.create cfg ~engine ~flash:flashes.(0) ~dram)
  in
  let tput, lat, _makespan_us = drive ~engine ~ops:(ops_of_store store) ~workload in
  (* Per-card occupancy straight off the probe registry: the managers label
     their busy summaries through Banks.probe_label, "storage.manager" for
     a direct mount and "storage.card<i>" behind an array.  Reported as
     each card's share of the array's total busy time — even shares mean
     the striping spread the load. *)
  let snap = Probe.snapshot () in
  let managers = Storage.Store.managers store in
  let busy =
    Array.map
      (fun m ->
        summary_sum snap
          (Storage.Banks.probe_label ?card:(Storage.Manager.card m) "busy_us"))
      managers
  in
  let total_busy = Array.fold_left ( +. ) 0.0 busy in
  let occ =
    Array.map (fun b -> if total_busy = 0.0 then 0.0 else b /. total_busy) busy
  in
  let wear_max =
    Array.map
      (fun m -> (Storage.Manager.wear_evenness m).Storage.Wear.max_erases)
      managers
  in
  let front_hits =
    match arr with Some a -> Storage.Array.front_cache_hits a | None -> 0
  in
  {
    p_tput_mb_s = tput;
    p_lat = lat;
    p_occ = occ;
    p_wear_max = wear_max;
    p_front_hits = front_hits;
  }

(* The store wrapper must add nothing: one card driven through
   [Store.Single] and through the bare manager API must produce the same
   spans, hence the same histogram and throughput. *)
let equivalence_ok () =
  let mk () =
    let engine = Engine.create () in
    let flash =
      Device.Flash.create
        (Device.Flash.config ~nbanks ~size_bytes:flash_bytes_per_card ())
    in
    let dram =
      Device.Dram.create ~size_bytes:(4 * Units.mib) ~battery_backed:true ()
    in
    (engine, Storage.Manager.create (mgr_cfg ()) ~engine ~flash ~dram)
  in
  let engine1, m1 = mk () in
  let t1, l1, _ = drive ~engine:engine1 ~ops:(ops_of_manager m1) ~workload:Erase_heavy in
  let engine2, m2 = mk () in
  let t2, l2, _ =
    drive ~engine:engine2
      ~ops:(ops_of_store (Storage.Store.Single m2))
      ~workload:Erase_heavy
  in
  t1 = t2 && Stat.Histogram.buckets l1 = Stat.Histogram.buckets l2

let cells =
  [
    { cards = 1; strip = 1; workload = Erase_heavy };
    { cards = 2; strip = 1; workload = Erase_heavy };
    { cards = 2; strip = 16; workload = Erase_heavy };
    { cards = 4; strip = 1; workload = Erase_heavy };
    { cards = 4; strip = 16; workload = Erase_heavy };
    { cards = 1; strip = 4; workload = Read_hot };
    { cards = 2; strip = 4; workload = Read_hot };
    { cards = 4; strip = 4; workload = Read_hot };
  ]

let run () =
  Common.section "E13: striped multi-card storage arrays";
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "aggregate read throughput vs cards (%d read streams, %d banks/card)"
           nstreams nbanks)
      ~columns:
        [
          ("workload", Table.Left);
          ("cards", Table.Right);
          ("strip", Table.Right);
          ("read MB/s", Table.Right);
          ("read p99 (us)", Table.Right);
          ("per-card busy share", Table.Left);
          ("wear max", Table.Right);
          ("front hits", Table.Right);
        ]
  in
  (* Each cell owns its engine/devices, so the sweep runs on the Domain
     pool; the equivalence pair rides along as one more item. *)
  let points = Pool.run_map (fun cell -> (cell, run_point cell)) cells in
  let equiv = equivalence_ok () in
  let tput_of want =
    List.fold_left
      (fun acc (c, p) -> if tag c = want then p.p_tput_mb_s else acc)
      nan points
  in
  let previous_workload = ref None in
  List.iter
    (fun (cell, p) ->
      if !previous_workload <> None && !previous_workload <> Some cell.workload then
        Table.add_rule t;
      previous_workload := Some cell.workload;
      let cell_tag = tag cell in
      Common.put_metric ("e13_tput_mb_s_" ^ cell_tag) p.p_tput_mb_s;
      Common.put_metric ("e13_p99_us_" ^ cell_tag) (Common.p99 p.p_lat);
      Array.iteri
        (fun i o -> Common.put_metric (Printf.sprintf "e13_occ_c%d_%s" i cell_tag) o)
        p.p_occ;
      Common.put_metric
        ("e13_wear_max_" ^ cell_tag)
        (float_of_int (Array.fold_left max 0 p.p_wear_max));
      if cell.workload = Read_hot then
        Common.put_metric ("e13_front_hits_" ^ cell_tag) (float_of_int p.p_front_hits);
      Table.add_row t
        [
          workload_name cell.workload;
          Table.cell_i cell.cards;
          Table.cell_i cell.strip;
          Table.cell_f ~decimals:2 p.p_tput_mb_s;
          Common.cell_us (Common.p99 p.p_lat);
          String.concat "/"
            (Array.to_list (Array.map (fun o -> Printf.sprintf "%.2f" o) p.p_occ));
          Table.cell_i (Array.fold_left max 0 p.p_wear_max);
          (if cell.workload = Read_hot then Table.cell_i p.p_front_hits else "-");
        ])
    points;
  Table.print t;
  let scaling = tput_of "4c_s16_erase" /. tput_of "1c_s1_erase" in
  Common.put_metric "e13_read_scaling_4v1" scaling;
  Common.put_metric "e13_cards1_equiv" (if equiv then 1.0 else 0.0);
  Common.note
    "erase-heavy read throughput at 4 cards is %.1fx one card (--check asserts >= 2x); \
     cards=1 through the store wrapper is %s to the bare manager."
    scaling
    (if equiv then "byte-identical" else "NOT IDENTICAL (bug)");
  Common.note
    "read-hot rows: the shared front cache serves the cross-card hot set at DRAM \
     speed, so throughput stops depending on the card count."
