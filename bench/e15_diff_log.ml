(* E15 — page-differential logging: the merge-threshold x overwrite-ratio
   trade-off curve.
   Shape to reproduce: programming a small delta record per overwrite
   instead of a whole page cuts flash write traffic roughly in proportion
   to how much of the workload is overwrites — but every delta lengthens
   the chain a read must reassemble, so read latency climbs with the
   merge threshold.  Sweeping the threshold at a fixed overwrite ratio
   traces the knob's whole trade-off: a low threshold merges eagerly
   (more full-page programs, short chains, fast reads), a high one lets
   chains run (least traffic, slowest reads).  The off baseline pays a
   full page per overwrite and anchors the reduction headline.

   Cells run a write-through manager so every overwrite programs
   synchronously and the ratio knob maps one-to-one onto flash traffic;
   fresh writes (the non-overwrite share) are short-lived allocations
   that are freed once a small window passes, which keeps occupancy flat
   while still costing their full page. *)
open Sim

let nbanks = 4
let flash_bytes = 2 * Units.mib
let churn_blocks = 256
let fresh_window = 64
let delta_bytes = 64

type cell = { merge_len : int option; overwrite_pct : int }
(* [merge_len = None] is the diff-off baseline. *)

let tag { merge_len; overwrite_pct } =
  Printf.sprintf "%s_r%d"
    (match merge_len with None -> "off" | Some l -> Printf.sprintf "m%d" l)
    overwrite_pct

let mk_manager { merge_len; _ } =
  let engine = Engine.create () in
  let flash =
    Device.Flash.create (Device.Flash.config ~nbanks ~size_bytes:flash_bytes ())
  in
  let dram = Device.Dram.create ~size_bytes:(4 * Units.mib) ~battery_backed:true () in
  let cfg =
    {
      Storage.Manager.default_config with
      Storage.Manager.segment_sectors = 16;
      buffer =
        {
          Storage.Write_buffer.capacity_blocks = 0;
          writeback_delay = Time.span_s 1.0;
          refresh_on_rewrite = false;
        };
      diff_log =
        Option.map
          (fun merge_len -> { Storage.Diff_log.delta_bytes; merge_len })
          merge_len;
    }
  in
  (engine, Storage.Manager.create cfg ~engine ~flash ~dram, flash)

type point = {
  p_bytes_programmed : int;
  p_bytes_per_write : float;
  p_read_mean_us : float;
  p_read_p99_us : float;
  p_deltas : int;
  p_merges : int;
}

let run_point cell =
  let engine, m, flash = mk_manager cell in
  let churn = Array.init churn_blocks (fun _ -> Storage.Manager.alloc m) in
  Array.iter (fun b -> Storage.Manager.load_cold m b) churn;
  Engine.run_until engine (Time.add (Engine.now engine) (Time.span_s 1.0));
  Storage.Manager.reset_traffic m;
  Device.Flash.reset_stats flash;
  let rounds = if Common.quick then 30 else 100 in
  let writes_per_round = 64 and reads_per_round = 32 in
  let lcg s = ((s * 1103515245) + 12345) land 0x3FFFFFFF in
  let wstate = ref 4242 and rstate = ref 777 in
  let fresh = Queue.create () in
  let wcursor = ref (Engine.now engine) in
  let rcursor = ref (Engine.now engine) in
  let bytes = Storage.Manager.block_bytes m in
  let nwrites = ref 0 in
  for _round = 1 to rounds do
    for _ = 1 to writes_per_round do
      wstate := lcg !wstate;
      let at = Time.max !wcursor (Engine.now engine) in
      incr nwrites;
      if !wstate mod 100 < cell.overwrite_pct then
        wcursor := Storage.Manager.write_block_at m ~at churn.(!wstate / 100 mod churn_blocks)
      else begin
        (* A short-lived fresh block: full-page program now, freed once
           the window slides past it — occupancy stays flat either way. *)
        let b = Storage.Manager.alloc m in
        wcursor := Storage.Manager.write_block_at m ~at b;
        Queue.push b fresh;
        if Queue.length fresh > fresh_window then
          Storage.Manager.free_block m (Queue.pop fresh)
      end
    done;
    (* Interleaved reads keep the banks contended like a real workload;
       they are not the latency measurement (their spans are dominated by
       waits behind the write stream, which shrink as deltas shrink the
       write traffic — the opposite axis of the trade-off). *)
    for _ = 1 to reads_per_round do
      rstate := lcg !rstate;
      let b = churn.(!rstate mod churn_blocks) in
      let at = Time.max !rcursor (Engine.now engine) in
      rcursor := Storage.Manager.read_block_at ~bytes m ~at b
    done;
    Engine.run_until engine (Time.max !wcursor !rcursor)
  done;
  (* The read-latency axis, measured clean: quiesce the banks, then read
     every churn block once, cursor-threaded so each read pays exactly
     its own base-plus-chain reassembly cost. *)
  Engine.run_until engine (Time.add (Engine.now engine) (Time.span_s 1.0));
  let rlat = Stat.Histogram.create () in
  let rsum = ref 0.0 in
  let qcursor = ref (Engine.now engine) in
  Array.iter
    (fun b ->
      let at = !qcursor in
      let fin = Storage.Manager.read_block_at ~bytes m ~at b in
      let us = Time.span_to_us (Time.diff fin at) in
      Stat.Histogram.observe rlat us;
      rsum := !rsum +. us;
      qcursor := fin)
    churn;
  let ds = Storage.Manager.diff_stats m in
  let stat field = match ds with None -> 0 | Some s -> field s in
  {
    p_bytes_programmed = Device.Flash.bytes_programmed flash;
    p_bytes_per_write =
      float_of_int (Device.Flash.bytes_programmed flash) /. float_of_int !nwrites;
    p_read_mean_us = !rsum /. float_of_int churn_blocks;
    p_read_p99_us = Common.p99 rlat;
    p_deltas = stat (fun s -> s.Storage.Diff_log.deltas_flushed);
    p_merges = stat (fun s -> s.Storage.Diff_log.merges);
  }

let merge_lens = [ 2; 4; 8; 16 ]
let ratios = [ 50; 95 ]

let cells =
  List.concat_map
    (fun overwrite_pct ->
      { merge_len = None; overwrite_pct }
      :: List.map (fun l -> { merge_len = Some l; overwrite_pct }) merge_lens)
    ratios

let run () =
  Common.section "E15: page-differential logging trade-off";
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "delta chains vs full-page rewrites (%dB deltas, %d-block churn set)"
           delta_bytes churn_blocks)
      ~columns:
        [
          ("overwrites", Table.Right);
          ("merge", Table.Left);
          ("bytes programmed", Table.Right);
          ("bytes/write", Table.Right);
          ("read mean (us)", Table.Right);
          ("read p99 (us)", Table.Right);
          ("deltas", Table.Right);
          ("merges", Table.Right);
        ]
  in
  let points = Pool.run_map (fun cell -> (cell, run_point cell)) cells in
  let previous_ratio = ref None in
  List.iter
    (fun (cell, p) ->
      if !previous_ratio <> None && !previous_ratio <> Some cell.overwrite_pct then
        Table.add_rule t;
      previous_ratio := Some cell.overwrite_pct;
      let cell_tag = tag cell in
      Common.put_metric ("e15_bytes_programmed_" ^ cell_tag)
        (float_of_int p.p_bytes_programmed);
      Common.put_metric ("e15_read_mean_us_" ^ cell_tag) p.p_read_mean_us;
      Common.put_metric ("e15_read_p99_us_" ^ cell_tag) p.p_read_p99_us;
      if cell.merge_len <> None then begin
        Common.put_metric ("e15_deltas_" ^ cell_tag) (float_of_int p.p_deltas);
        Common.put_metric ("e15_merges_" ^ cell_tag) (float_of_int p.p_merges)
      end;
      Table.add_row t
        [
          Printf.sprintf "%d%%" cell.overwrite_pct;
          (match cell.merge_len with None -> "off" | Some l -> Printf.sprintf "%d" l);
          Table.cell_i p.p_bytes_programmed;
          Printf.sprintf "%.0f" p.p_bytes_per_write;
          Common.cell_us p.p_read_mean_us;
          Common.cell_us p.p_read_p99_us;
          (if cell.merge_len = None then "-" else Table.cell_i p.p_deltas);
          (if cell.merge_len = None then "-" else Table.cell_i p.p_merges);
        ])
    points;
  Table.print t;
  let find want =
    List.fold_left (fun acc (c, p) -> if tag c = want then Some p else acc) None points
  in
  let bytes want =
    match find want with Some p -> float_of_int p.p_bytes_programmed | None -> nan
  in
  let read_mean want =
    match find want with Some p -> p.p_read_mean_us | None -> nan
  in
  (* Headline 1: at the default merge threshold (4) on the overwrite-heavy
     workload, diff logging must cut flash write traffic by >= 1.3x. *)
  let reduction = bytes "off_r95" /. bytes "m4_r95" in
  Common.put_metric "e15_traffic_reduction_default" reduction;
  (* Headline 2: the trade-off curve is monotone in the threshold — write
     traffic only falls as chains are allowed to run, read latency only
     climbs (tiny tolerance for bank-wait jitter). *)
  let monotone =
    let rec pairs = function
      | a :: (b :: _ as rest) -> (a, b) :: pairs rest
      | _ -> []
    in
    List.for_all
      (fun ratio ->
        List.for_all
          (fun (la, lb) ->
            let ta = Printf.sprintf "m%d_r%d" la ratio
            and tb = Printf.sprintf "m%d_r%d" lb ratio in
            bytes ta >= bytes tb *. 0.999
            && read_mean ta <= read_mean tb *. 1.001)
          (pairs merge_lens))
      ratios
  in
  Common.put_metric "e15_tradeoff_monotone" (if monotone then 1.0 else 0.0);
  Common.note
    "overwrite-heavy (95%%): deltas at merge=4 program %.2fx less than full-page \
     rewrites (--check asserts >= 1.3x); the merge knob trades write traffic for read \
     latency monotonically: %s."
    reduction
    (if monotone then "holds" else "VIOLATED (bug)");
  Common.note
    "the ratio knob scales the win: at 50%% overwrites the fresh-write share pays \
     full pages on both sides, so the curves converge toward the baseline."
