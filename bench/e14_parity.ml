(* E14 — parity strips and degraded operation (extends E13's striped
   array with RAID-4/5-shaped redundancy).
   Shape to reproduce: parity buys survival at a write premium.  With
   parity on, every client write also updates its row's parity block on
   another card — the classic small-write penalty of two extra reads and
   one extra program — so blocks_flushed grows and the write p99 climbs.
   In exchange, a surprise card eject mid-run loses nothing: every block
   on the missing card reconstructs from the surviving row members, and a
   blank replacement card rebuilds back to full health in the background.

   The sweep is parity on/off x card count x workload; each cell reports
   flushed blocks (the penalty numerator), write p99, and — for parity
   cells — survival after a surprise eject (share of the working set
   still present and readable), buffered blocks dropped by the eject,
   and the background rebuild's wall-clock.  A machine-level run rides
   along to pin the degraded-equivalence claim at the file-system layer:
   the namespace and every file's readability must be identical before
   and during the degraded window, and again after the rebuild. *)
open Sim

let nbanks = 4
let flash_bytes_per_card = 2 * Units.mib
let block_bytes = 512
let strip_blocks = 4

type workload = Write_heavy | Read_mostly

let workload_name = function Write_heavy -> "write" | Read_mostly -> "read"

type cell = { cards : int; parity : bool; workload : workload }

let tag { cards; parity; workload } =
  Printf.sprintf "%dc_%s_%s" cards
    (if parity then "par" else "off")
    (workload_name workload)

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

let mk_array { cards; parity; workload } =
  let engine = Engine.create () in
  let flashes =
    Array.init cards (fun _ ->
        Device.Flash.create
          (Device.Flash.config ~nbanks ~size_bytes:flash_bytes_per_card ()))
  in
  let dram = Device.Dram.create ~size_bytes:(4 * Units.mib) ~battery_backed:true () in
  let striping =
    if parity then Storage.Striping.Parity { strip_blocks; rotate = true }
    else Storage.Striping.Round_robin { strip_blocks }
  in
  let front = match workload with Read_mostly -> 128 | Write_heavy -> 0 in
  ( engine,
    Storage.Array.create ~front_cache_blocks:front ~striping (mgr_cfg ()) ~engine
      ~flashes ~dram )

(* Steady-state phase shared by every cell: a cold read set plus a churn
   set the writer rewrites, write latency measured per operation through
   its own completion cursor (writes are buffered, so the span is DRAM
   cost plus — under parity — the RMW delta reads). *)
let drive_steady ~engine ~a ~workload =
  let cold = Array.init 768 (fun _ -> Storage.Array.alloc a) in
  let churn = Array.init 384 (fun _ -> Storage.Array.alloc a) in
  Array.iter (Storage.Array.load_cold a) cold;
  Array.iter (Storage.Array.load_cold a) churn;
  Engine.run_until engine (Time.add (Engine.now engine) (Time.span_s 60.0));
  Storage.Array.reset_traffic a;
  let rounds = if Common.quick then 20 else 80 in
  let writes_per_round, reads_per_round =
    match workload with Write_heavy -> (64, 16) | Read_mostly -> (8, 64)
  in
  let wlat = Stat.Histogram.create () in
  let wcursor = ref (Engine.now engine) in
  let rcursor = ref (Engine.now engine) in
  let bytes = Storage.Array.block_bytes a in
  let lcg s = ((s * 1103515245) + 12345) land 0x3FFFFFFF in
  let wstate = ref 4242 and rstate = ref 777 in
  for _round = 1 to rounds do
    for _ = 1 to writes_per_round do
      wstate := lcg !wstate;
      let b = churn.(!wstate mod Array.length churn) in
      let at = Time.max !wcursor (Engine.now engine) in
      let fin = Storage.Array.write_block_at a ~at b in
      Stat.Histogram.observe wlat (Time.span_to_us (Time.diff fin at));
      wcursor := fin
    done;
    ignore (Storage.Array.flush_all a);
    for _ = 1 to reads_per_round do
      rstate := lcg !rstate;
      let b = cold.(!rstate mod Array.length cold) in
      let at = Time.max !rcursor (Engine.now engine) in
      rcursor := Storage.Array.read_block_at ~bytes a ~at b
    done;
    Engine.run_until engine (Time.max !wcursor !rcursor)
  done;
  (Array.append cold churn, wlat)

type point = {
  p_flushed : int;
  p_write_p99_us : float;
  p_parity_writes : int;
  (* Parity cells only; zeroes / nan elsewhere. *)
  p_survival : float;
  p_lost_buffered : int;
  p_rebuild_ms : float;
  p_rebuilt : int;
}

(* Parity cells continue past steady state into the acceptance story:
   surprise-eject a card, count what the client can still see, push a
   round of degraded writes through the parity fold, then reinsert a
   blank card and clock the background rebuild. *)
let drive_eject_rebuild ~engine ~a ~live =
  let victim = 1 in
  let report = Storage.Array.eject_card ~surprise:true a ~card:victim in
  let present =
    Array.fold_left
      (fun acc b -> if Storage.Array.block_exists a b then acc + 1 else acc)
      0 live
  in
  (* Touch a sample of the survivors so reconstruction actually runs. *)
  let rcursor = ref (Engine.now engine) in
  let bytes = Storage.Array.block_bytes a in
  for i = 0 to 63 do
    let b = live.(i * 17 mod Array.length live) in
    rcursor := Storage.Array.read_block_at ~bytes a ~at:!rcursor b
  done;
  let wcursor = ref !rcursor in
  for i = 0 to 63 do
    wcursor := Storage.Array.write_block_at a ~at:!wcursor live.(i)
  done;
  ignore (Storage.Array.flush_all a);
  Engine.run_until engine !wcursor;
  Storage.Array.reinsert_card a ~card:victim;
  let tries = ref 0 in
  while Storage.Array.health a <> `Healthy && !tries < 600 do
    Engine.run_until engine (Time.add (Engine.now engine) (Time.span_s 0.1));
    incr tries
  done;
  let ps = Storage.Array.parity_stats a in
  let rebuild_ms =
    match ps.Storage.Array.last_rebuild with
    | Some span -> Time.span_to_us span /. 1000.0
    | None -> nan
  in
  ( float_of_int present /. float_of_int (Array.length live),
    report.Storage.Array.lost_buffered,
    rebuild_ms,
    ps.Storage.Array.rebuilt_blocks )

let run_point ({ parity; _ } as cell) =
  let engine, a = mk_array cell in
  let live, wlat = drive_steady ~engine ~a ~workload:cell.workload in
  let stats = Storage.Array.stats a in
  let ps = Storage.Array.parity_stats a in
  let survival, lost_buffered, rebuild_ms, rebuilt =
    if parity then drive_eject_rebuild ~engine ~a ~live else (nan, 0, nan, 0)
  in
  {
    p_flushed = stats.Storage.Manager.blocks_flushed;
    p_write_p99_us = Common.p99 wlat;
    p_parity_writes = ps.Storage.Array.parity_writes;
    p_survival = survival;
    p_lost_buffered = lost_buffered;
    p_rebuild_ms = rebuild_ms;
    p_rebuilt = rebuilt;
  }

(* The file-system-level degraded-equivalence pin --check asserts:
   a 3-card parity machine loses a card without warning mid-life; the
   namespace and every file's contents must read back identically while
   degraded, and the reinserted card must rebuild to a healthy array. *)
let degraded_fs_equiv () =
  let cfg =
    Ssmc.Config.solid_state ~flash_mb:2 ~cards:3
      ~striping:(Storage.Striping.Parity { strip_blocks; rotate = true })
      ~front_cache_blocks:32 ~seed:7 ()
  in
  let machine = Ssmc.Machine.create cfg in
  let memfs = Option.get (Ssmc.Machine.memfs machine) in
  let engine = Ssmc.Machine.engine machine in
  (match Fs.Memfs.mkdir memfs "/data" with
  | Ok _ | Error Fs.Fs_error.Eexist -> ()
  | Error _ -> failwith "e14: mkdir /data");
  for i = 0 to 23 do
    let path = Printf.sprintf "/data/f%d" i in
    (match Fs.Memfs.create memfs path with
    | Ok _ | Error Fs.Fs_error.Eexist -> ()
    | Error _ -> failwith "e14: create");
    match Fs.Memfs.write memfs path ~offset:0 ~bytes:2048 with
    | Ok _ -> ()
    | Error _ -> failwith "e14: write"
  done;
  Engine.run_until engine (Time.add (Engine.now engine) (Time.span_s 1.0));
  let namespace () = List.map (fun (p, s, _) -> (p, s)) (Fs.Memfs.enumerate memfs) in
  let all_readable () =
    List.for_all
      (fun (path, size, _) ->
        match Fs.Memfs.read memfs path ~offset:0 ~bytes:size with
        | Ok _ -> true
        | Error _ -> false)
      (Fs.Memfs.enumerate memfs)
  in
  let fsck () = Fs.Memfs.check memfs = Ok () in
  let before = namespace () in
  let pre_ok = all_readable () && fsck () in
  let o =
    Ssmc.Machine.inject_fault machine (Fault.Card_eject { card = 1; surprise = true })
  in
  let degraded_ok =
    o.Ssmc.Machine.survived_by = `Parity
    && o.Ssmc.Machine.blocks_lost = 0
    && (not o.Ssmc.Machine.cold_restart)
    && namespace () = before
    && all_readable () && fsck ()
  in
  ignore (Ssmc.Machine.inject_fault machine (Fault.Card_reinsert { card = 1 }));
  Engine.run_until engine (Time.add (Engine.now engine) (Time.span_s 10.0));
  let healthy_again =
    match Ssmc.Machine.store machine with
    | Some s -> Storage.Store.health s = `Healthy
    | None -> false
  in
  let after_ok = namespace () = before && all_readable () && fsck () in
  pre_ok && degraded_ok && healthy_again && after_ok

let cells =
  [
    { cards = 2; parity = false; workload = Write_heavy };
    { cards = 2; parity = true; workload = Write_heavy };
    { cards = 3; parity = false; workload = Write_heavy };
    { cards = 3; parity = true; workload = Write_heavy };
    { cards = 4; parity = false; workload = Write_heavy };
    { cards = 4; parity = true; workload = Write_heavy };
    { cards = 3; parity = false; workload = Read_mostly };
    { cards = 3; parity = true; workload = Read_mostly };
  ]

let run () =
  Common.section "E14: parity strips and degraded operation";
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "parity write penalty vs survival (strip=%d blocks, %d banks/card)"
           strip_blocks nbanks)
      ~columns:
        [
          ("workload", Table.Left);
          ("cards", Table.Right);
          ("parity", Table.Left);
          ("flushed", Table.Right);
          ("write p99 (us)", Table.Right);
          ("parity writes", Table.Right);
          ("survival", Table.Right);
          ("lost buf", Table.Right);
          ("rebuild (ms)", Table.Right);
          ("rebuilt", Table.Right);
        ]
  in
  let points = Pool.run_map (fun cell -> (cell, run_point cell)) cells in
  let fs_equiv = degraded_fs_equiv () in
  let find want =
    List.fold_left (fun acc (c, p) -> if tag c = want then Some p else acc) None points
  in
  let previous_workload = ref None in
  List.iter
    (fun (cell, p) ->
      if !previous_workload <> None && !previous_workload <> Some cell.workload then
        Table.add_rule t;
      previous_workload := Some cell.workload;
      let cell_tag = tag cell in
      Common.put_metric ("e14_flushed_" ^ cell_tag) (float_of_int p.p_flushed);
      Common.put_metric ("e14_write_p99_us_" ^ cell_tag) p.p_write_p99_us;
      if cell.parity then begin
        Common.put_metric ("e14_parity_writes_" ^ cell_tag)
          (float_of_int p.p_parity_writes);
        Common.put_metric ("e14_survival_" ^ cell_tag) p.p_survival;
        Common.put_metric ("e14_lost_buffered_" ^ cell_tag)
          (float_of_int p.p_lost_buffered);
        Common.put_metric ("e14_rebuild_ms_" ^ cell_tag) p.p_rebuild_ms;
        Common.put_metric ("e14_rebuilt_" ^ cell_tag) (float_of_int p.p_rebuilt)
      end;
      Table.add_row t
        [
          workload_name cell.workload;
          Table.cell_i cell.cards;
          (if cell.parity then "on" else "off");
          Table.cell_i p.p_flushed;
          Common.cell_us p.p_write_p99_us;
          (if cell.parity then Table.cell_i p.p_parity_writes else "-");
          (if cell.parity then Printf.sprintf "%.3f" p.p_survival else "-");
          (if cell.parity then Table.cell_i p.p_lost_buffered else "-");
          (if cell.parity then Table.cell_f ~decimals:1 p.p_rebuild_ms else "-");
          (if cell.parity then Table.cell_i p.p_rebuilt else "-");
        ])
    points;
  Table.print t;
  let flushed want =
    match find want with Some p -> float_of_int p.p_flushed | None -> nan
  in
  let penalty = flushed "3c_par_write" /. flushed "3c_off_write" in
  let survival =
    match find "3c_par_write" with Some p -> p.p_survival | None -> nan
  in
  Common.put_metric "e14_flush_penalty_3c" penalty;
  Common.put_metric "e14_degraded_fs_equiv" (if fs_equiv then 1.0 else 0.0);
  Common.note
    "3-card write-heavy: parity flushes %.2fx the blocks of the plain stripe (the \
     RAID small-write premium), and a surprise eject keeps %.0f%% of the working \
     set readable (--check asserts survival = 1 and penalty > 1)."
    penalty (100.0 *. survival);
  Common.note
    "machine-level degraded equivalence (namespace + every file's contents \
     identical before, during, and after the degraded window): %s."
    (if fs_equiv then "holds" else "VIOLATED (bug)")
