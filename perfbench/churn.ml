(* [manager-churn]: the storage manager driven directly, as the E7/E8
   experiments do — no trace, file system or machine.  An 8 MB, 4-bank
   card filled to 85% with cold data takes, once per simulated second and
   all at one instant, 96 Zipf(1.0) rewrites and 32 uniform reads (three
   writes then a read, 32 times); then the engine runs one second.

   Rewrites of one hot block land in the same instant, which is the shape
   that grows the write buffer's queue past its dirty count, and the
   cleaner copies enough that reads wait behind erases. *)

open Sim
module Mgr = Storage.Manager

let writes_per_round = 96
let reads_per_round = 32
let rounds = function Workload.Full -> 5000 | Workload.Tiny -> 50
let fill = 0.85

type input = { blocks : int array; write_ix : int array; read_ix : int array }

(* The op stream is drawn from the seed up front; the simulator only sees
   the generated block indices. *)
let generate ~seed ~nblocks ~rounds =
  let rng = Rng.create ~seed in
  let zipf = Distribution.Zipf.create ~n:nblocks ~s:1.0 in
  let write_ix = Array.init (rounds * writes_per_round) (fun _ -> Distribution.Zipf.sample zipf rng) in
  let read_ix = Array.init (rounds * reads_per_round) (fun _ -> Rng.int rng nblocks) in
  (write_ix, read_ix)

let build () =
  let engine = Engine.create () in
  let flash = Device.Flash.create (Device.Flash.config ~nbanks:4 ~size_bytes:(8 * Units.mib) ()) in
  let dram = Device.Dram.create ~size_bytes:(2 * Units.mib) ~battery_backed:true () in
  (engine, flash, dram, Mgr.create Mgr.default_config ~engine ~flash ~dram)

let energy_j flash dram =
  Device.Power.Meter.total_joules (Device.Flash.meter flash)
  +. Device.Power.Meter.total_joules (Device.Dram.meter dram)

type session = {
  steps : Metric.t list;
  expected : int;
  run : traced:bool -> unit -> Workload.outcome * Metric.t list;
  check : unit -> (unit, string) result;
}

let session ~seed ~size =
  let rounds = rounds size in
  let t0 = Span.now_s () in
  let engine, flash, dram, m = build () in
  let t1 = Span.now_s () in
  let nblocks = int_of_float (fill *. float_of_int (Mgr.capacity_blocks m)) in
  let write_ix, read_ix = generate ~seed ~nblocks ~rounds in
  let t2 = Span.now_s () in
  let blocks = Array.init nblocks (fun _ -> Mgr.alloc m) in
  Array.iter (Mgr.load_cold m) blocks;
  let settle = ref Time.zero in
  for bank = 0 to Device.Flash.nbanks flash - 1 do
    settle := Time.max !settle (Device.Flash.bank_busy_until flash ~bank)
  done;
  Engine.run_until engine (Time.add !settle (Time.span_s 1.0));
  Mgr.reset_traffic m;
  let t3 = Span.now_s () in
  let input = { blocks; write_ix; read_ix } in
  let run ~traced =
    let wspan = Span.create () and rspan = Span.create () and uspan = Span.create () in
    let reads = Samples.create () and writes = Samples.create () in
    let pending_max = ref 0 and buffer_pending_max = ref 0 and dirty_max = ref 0 in
    let started = Engine.now engine and e0 = energy_j flash dram in
    let write b =
      if traced then Span.time wspan (fun () -> Mgr.write_block m b) else Mgr.write_block m b
    and read b =
      if traced then Span.time rspan (fun () -> Mgr.read_block m b) else Mgr.read_block m b
    in
    for r = 0 to rounds - 1 do
      for k = 0 to reads_per_round - 1 do
        for j = 0 to 2 do
          let b = input.blocks.(input.write_ix.((r * writes_per_round) + (3 * k) + j)) in
          Samples.add writes (Time.span_to_us (write b))
        done;
        let b = input.blocks.(input.read_ix.((r * reads_per_round) + k)) in
        Samples.add reads (Time.span_to_us (read b))
      done;
      if traced then begin
        pending_max := max !pending_max (Engine.pending engine);
        buffer_pending_max := max !buffer_pending_max (Workload.buffer_pending [| m |]);
        dirty_max := max !dirty_max (Workload.buffer_dirty [| m |]);
        if r land 63 = 0 then Gc_layer.poll ()
      end;
      let next = Time.add (Engine.now engine) (Time.span_s 1.0) in
      if traced then Span.time uspan (fun () -> Engine.run_until engine next)
      else Engine.run_until engine next
    done;
    fun () ->
      let elapsed = Time.diff (Engine.now engine) started in
      Device.Flash.charge_idle flash elapsed;
      Device.Dram.charge_idle dram elapsed;
      let store = Storage.Store.Single m in
      let counts = Workload.store_counts store in
      let stats = Mgr.stats m in
      let energy = energy_j flash dram -. e0 in
      let lifetime = Workload.lifetime_years store ~elapsed in
      let b = Buffer.create 4096 in
      let samples s = Buffer.add_string b (Marshal.to_string (Samples.to_array s) []) in
      samples writes;
      samples reads;
      Printf.bprintf b "\n%d %h %h\n" (Time.span_to_ns elapsed) energy lifetime;
      Workload.digest_counts b counts;
      let ops = Samples.count writes + Samples.count reads in
      let outcome =
        {
          Workload.ops;
          failed = 0;
          digest = Digest.to_hex (Digest.string (Buffer.contents b));
          values =
            (if traced then Workload.latency_metrics ~reads ~writes else [])
            @ [
                Metric.v "sim_write_amp" "ratio" stats.Mgr.write_amplification;
                Metric.v "sim_energy_j" "J" energy;
                Metric.v "sim_lifetime_years" "years" lifetime;
              ]
            @ counts;
        }
      in
      let layers =
        Span.profile "manager.write_block" wspan
        @ Span.profile "manager.read_block" rspan
        @ Span.absent [ "memfs.create"; "memfs.write"; "memfs.read"; "memfs.truncate"; "memfs.unlink" ]
        @ [
            Metric.count "memfs.errors" 0;
            Metric.count "engine.run_until.calls" uspan.calls;
            Metric.v "engine.run_until.host_s" "s" (Span.host_s uspan);
            Metric.v "engine.drain.host_s" "s" 0.0;
            Metric.count "machine.account.calls" 0;
            Metric.v "machine.account.host_s" "s" 0.0;
            Metric.count "machine.inject_fault.calls" 0;
            Metric.v "machine.inject_fault.host_s" "s" 0.0;
            Metric.count "engine.pending_max" !pending_max;
            Metric.count "write_buffer.pending_entries_max" !buffer_pending_max;
            Metric.count "write_buffer.dirty_max" !dirty_max;
          ]
      in
      (outcome, layers)
  in
  {
    steps =
      [
        Metric.v "trace.generate_s" "s" (t2 -. t1);
        Metric.v "trace.compile_s" "s" 0.0;
        Metric.v "machine.create_s" "s" (t1 -. t0);
        Metric.v "machine.preload_s" "s" (t3 -. t2);
      ];
    expected = rounds * (writes_per_round + reads_per_round);
    run;
    check =
      (fun () ->
        match Array.find_opt (fun b -> not (Mgr.block_exists m b)) input.blocks with
        | Some b -> Error (Printf.sprintf "block %d vanished" b)
        | None -> Ok ());
  }

(* One session: the whole churn runs on one manager. *)
let prepare ~seed ~size ~traced =
  let current = ref None and finish = ref None and report = ref None in
  let close _ =
    let s = Option.get !current in
    let outcome, layers = (Option.get !finish) () in
    report :=
      Some
        {
          Workload.outcome;
          expected_ops = s.expected;
          check = s.check ();
          setup_steps = s.steps;
          layers = (if traced then layers else []);
        };
    current := None;
    finish := None
  in
  {
    Workload.sessions = 1;
    setup = (fun _ -> current := Some (session ~seed ~size));
    run = (fun _ -> finish := Some ((Option.get !current).run ~traced));
    close;
    finish = (fun () -> Option.get !report);
  }

let manager_churn = { Workload.name = "manager-churn"; prepare }
