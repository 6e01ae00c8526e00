(* E8 — Section 3.3: partitioning flash into banks so reads of read-mostly
   data are not stalled behind slow programs and erases.
   Shape to reproduce: with a single shared pool, cold-data read latency
   degrades (especially in the tail) as background write/flush traffic
   grows; with the read-mostly data segregated into its own banks, reads
   stay flat at device read speed no matter the write rate. *)
open Sim

let nbanks = 4

let run_point ~banking ~write_blocks_per_s ~seed =
  let engine = Engine.create () in
  let flash =
    Device.Flash.create
      (Device.Flash.config ~nbanks ~size_bytes:(8 * Units.mib) ())
  in
  let dram = Device.Dram.create ~size_bytes:(2 * Units.mib) ~battery_backed:true () in
  let cfg =
    {
      Storage.Manager.default_config with
      Storage.Manager.banking;
      buffer =
        {
          Storage.Write_buffer.capacity_blocks = 512;
          writeback_delay = Time.span_s 5.0;
          refresh_on_rewrite = false;
        };
    }
  in
  let manager = Storage.Manager.create cfg ~engine ~flash ~dram in
  (* Cold, read-mostly data: 1MB of program/file blocks. *)
  let cold = Array.init 2048 (fun _ -> Storage.Manager.alloc manager) in
  Array.iter (fun b -> Storage.Manager.load_cold manager b) cold;
  Engine.run_until engine (Time.add (Engine.now engine) (Time.span_s 60.0));
  Storage.Manager.reset_traffic manager;
  (* A writer dirties fresh blocks at the given rate (they flush in the
     background), while a reader samples cold blocks. *)
  let rng = Rng.create ~seed in
  let read_lat = Stat.Histogram.create () in
  let seconds = if Common.quick then 60 else 180 in
  let hot = Array.init 4096 (fun _ -> Storage.Manager.alloc manager) in
  let hot_cursor = ref 0 in
  for _ = 1 to seconds do
    (* Writer: always-new blocks, so everything must flush to flash. *)
    for _ = 1 to write_blocks_per_s do
      ignore (Storage.Manager.write_block manager hot.(!hot_cursor mod Array.length hot));
      incr hot_cursor
    done;
    (* Reader: 20 cold reads spread through the second. *)
    for i = 0 to 19 do
      Engine.run_until engine
        (Time.add (Engine.now engine) (Time.span_ms (1000.0 /. 20.0 *. 0.999)));
      ignore i;
      let b = Rng.choose rng cold in
      Stat.Histogram.observe read_lat
        (Time.span_to_us (Storage.Manager.read_block manager b))
    done
  done;
  read_lat

let run () =
  Common.section "E8: flash bank partitioning (Section 3.3)";
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "cold-data read latency vs background write rate (%d banks)" nbanks)
      ~columns:
        [
          ("write rate", Table.Right);
          ("banking", Table.Left);
          ("read p50 (us)", Table.Right);
          ("read p99 (us)", Table.Right);
          ("read mean (us)", Table.Right);
        ]
  in
  (* Each point owns its engine/manager/RNG, so the six points run on the
     Domain pool; rows render afterwards in submission order. *)
  let rates = [ 8; 32; 96 ] in
  let policies = [ Storage.Banks.Unified; Storage.Banks.Partitioned { write_banks = 1 } ] in
  let cells =
    Pool.run_map
      (fun (write_blocks_per_s, banking) ->
        (write_blocks_per_s, banking, run_point ~banking ~write_blocks_per_s ~seed:81))
      (List.concat_map (fun r -> List.map (fun b -> (r, b)) policies) rates)
  in
  List.iteri
    (fun i (write_blocks_per_s, banking, h) ->
      let tag =
        Printf.sprintf "%d_%s" write_blocks_per_s (Storage.Banks.policy_name banking)
      in
      Common.put_metric ("e8_p50_" ^ tag) (Common.p50 h);
      Common.put_metric ("e8_p99_" ^ tag) (Common.p99 h);
      Common.put_metric ("e8_mean_" ^ tag) (Stat.Histogram.mean h);
      Table.add_row t
        [
          Table.cell_bytes (512 * write_blocks_per_s) ^ "/s";
          Storage.Banks.policy_name banking;
          Common.cell_us (Common.p50 h);
          Common.cell_us (Common.p99 h);
          Common.cell_us (Stat.Histogram.mean h);
        ];
      if (i + 1) mod List.length policies = 0 then Table.add_rule t)
    cells;
  Table.print t;
  Common.note
    "partitioned keeps read-mostly banks free of programs/erases: the paper's 'spread file \
     systems across flash memory banks appropriately'."
