(* The two whole-machine workloads: the engineering trace replayed on one
   card ([replay-eng]) and on a 4-card RAID-5 array that loses a card
   mid-run ([array-parity]).

   One pass is an hour of engineering traffic, replayed as six independent
   10-minute sessions, each a fresh machine with its own trace drawn from
   the seed.  A single hour-long trace hangs on which few files its seed
   makes both large and popular: its allocation per record varied 12%
   between seeds, and its energy 28%.  Six sessions average that out to a
   third, so one seed's figures stand for the workload.

   Untraced passes call [Machine.run_compiled], the replay path users run.
   Traced passes run the benchmark's own copy of that loop, calling the
   same public functions in the same order — [Memfs.route] and the [_in]
   operations, [Engine.run_until], [Machine.account] every simulated
   minute, faults through [Engine.schedule] + [Machine.inject_fault] — with
   a span around each call.  Both produce a [Machine.result]; the gate
   requires the two digests to match. *)

open Sim
module M = Ssmc.Machine
module C = Trace.Replay.Compiled
module Memfs = Fs.Memfs

let sessions = function Workload.Full -> 6 | Workload.Tiny -> 2
let session_s = function Workload.Full -> 600.0 | Workload.Tiny -> 60.0
let drain = Time.span_s 120.0

let config ~parity ~seed =
  if not parity then Ssmc.Config.solid_state ~flash_mb:64 ~dram_mb:8 ~seed ()
  else
    (* On one hour-long trace (seed 1), 16 MB cards raise [Out_of_space]
       with diff logging on and not with it off; 32 MB leaves headroom. *)
    Ssmc.Config.solid_state ~flash_mb:32 ~dram_mb:8 ~cards:4
      ~striping:(Storage.Striping.Parity { strip_blocks = 4; rotate = true })
      ~front_cache_blocks:256
      ~manager:
        {
          Storage.Manager.default_config with
          diff_log = Some Storage.Diff_log.default_config;
        }
      ~seed ()

(* Card 2 is pulled without warning a third of the way into each session
   and replaced 5/60 of a session later; the array rebuilds it in the
   background. *)
let faults ~parity ~seconds =
  if not parity then []
  else
    Fault.schedule
      [
        {
          Fault.after = Time.span_s (seconds /. 3.0);
          kind = Fault.Card_eject { card = 2; surprise = true };
        };
        { Fault.after = Time.span_s (seconds *. 25.0 /. 60.0); kind = Fault.Card_reinsert { card = 2 } };
      ]

let store m = Option.get (M.store m)

let energy_j m =
  Device.Power.Meter.total_joules (Device.Dram.meter (M.dram m))
  +. Array.fold_left
       (fun acc f -> acc +. Device.Power.Meter.total_joules (Device.Flash.meter f))
       0.0 (M.flashes m)

(* Everything a pass simulated, rendered exactly (floats in hex), hashed. *)
let digest m (r : M.result) =
  let b = Buffer.create 4096 in
  let summary s =
    Printf.bprintf b "%d %h %h %h\n" (Stat.Summary.count s) (Stat.Summary.total s)
      (Option.value ~default:0.0 (Stat.Summary.min s))
      (Option.value ~default:0.0 (Stat.Summary.max s))
  in
  let hist h =
    List.iter (fun (lo, hi, n) -> Printf.bprintf b "[%h,%h):%d " lo hi n) (Stat.Histogram.buckets h);
    Buffer.add_char b '\n'
  in
  Printf.bprintf b "%d %d %d %d\n" r.ops_applied r.op_errors (Time.span_to_ns r.elapsed)
    (Time.span_to_ns r.busy);
  summary r.read_latency;
  summary r.write_latency;
  summary r.meta_latency;
  hist r.read_hist_us;
  hist r.write_hist_us;
  Printf.bprintf b "%h %h %h\n" r.energy_j r.battery_fraction_left
    (Option.value ~default:0.0 r.lifetime_years);
  List.iter
    (fun (o : M.fault_outcome) ->
      Printf.bprintf b "%s@%d dirty=%d lost=%d\n" (Fault.kind_name o.kind) (Time.to_ns o.at)
        o.dirty_at_fault o.blocks_lost)
    r.fault_log;
  Workload.digest_counts b (Workload.store_counts (store m));
  Digest.to_hex (Digest.string (Buffer.contents b))

(* What a pass keeps of a session once its machine is released. *)
type session = {
  s_ops : int;
  s_failed : int;
  s_digest : string;
  s_flushed : int;
  s_cleaned : int;
  s_energy_j : float;
  s_lifetime_years : float;
  s_counts : Metric.t list;
}

let session m (r : M.result) =
  let stats = Option.get r.manager_stats in
  {
    s_ops = r.ops_applied;
    s_failed = r.op_errors;
    s_digest = digest m r;
    s_flushed = stats.blocks_flushed;
    s_cleaned = stats.blocks_cleaned;
    s_energy_j = r.energy_j;
    s_lifetime_years = Option.value ~default:infinity r.lifetime_years;
    s_counts = Workload.store_counts (store m);
  }

(* The pass's outcome, pooled over its sessions: counts add up, write
   amplification is over the summed flushes, and the machine-lifetime
   estimate is the shortest. *)
let outcome sessions values =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 sessions in
  let flushed = float_of_int (sum (fun s -> s.s_flushed)) in
  let cleaned = float_of_int (sum (fun s -> s.s_cleaned)) in
  let counts =
    match List.map (fun s -> s.s_counts) sessions with
    | [] -> []
    | first :: rest ->
      List.fold_left
        (List.map2 (fun (a : Metric.t) (b : Metric.t) -> { a with value = a.value +. b.value }))
        first rest
  in
  {
    Workload.ops = sum (fun s -> s.s_ops);
    failed = sum (fun s -> s.s_failed);
    digest = Digest.to_hex (Digest.string (String.concat "" (List.map (fun s -> s.s_digest) sessions)));
    values =
      values
      @ [
          Metric.v "sim_write_amp" "ratio" ((flushed +. cleaned) /. flushed);
          Metric.v "sim_energy_j" "J" (List.fold_left (fun acc s -> acc +. s.s_energy_j) 0.0 sessions);
          Metric.v "sim_lifetime_years" "years"
            (List.fold_left (fun acc s -> Float.min acc s.s_lifetime_years) infinity sessions);
        ]
      @ counts;
  }

(* --- The traced loop ----------------------------------------------------------- *)

type spans = {
  create : Span.t;
  write : Span.t;
  read : Span.t;
  truncate : Span.t;
  unlink : Span.t;
  run_until : Span.t;
  drain_span : Span.t;
  account : Span.t;
  fault : Span.t;
}

(* What the traced loop accumulates across the sessions of a pass. *)
type acc = {
  sp : spans;
  reads : Samples.t;  (** Simulated read latency per op, us. *)
  writes : Samples.t;
  mutable errors : int;
  mutable pending_max : int;
  mutable buffer_pending_max : int;
  mutable dirty_max : int;
}

let new_acc () =
  {
    sp =
      {
        create = Span.create ();
        write = Span.create ();
        read = Span.create ();
        truncate = Span.create ();
        unlink = Span.create ();
        run_until = Span.create ();
        drain_span = Span.create ();
        account = Span.create ();
        fault = Span.create ();
      };
    reads = Samples.create ();
    writes = Samples.create ();
    errors = 0;
    pending_max = 0;
    buffer_pending_max = 0;
    dirty_max = 0;
  }

let replay_traced acc m (c : C.t) ~faults =
  let sp = acc.sp in
  let engine = M.engine m in
  let started = Engine.now engine in
  let fault_log = ref [] in
  List.iter
    (fun e ->
      ignore
        (Engine.schedule engine ~at:(Time.add started e.Fault.after) (fun _ ->
             fault_log := Span.time sp.fault (fun () -> M.inject_fault m e.Fault.kind) :: !fault_log)))
    faults;
  let read_latency = Stat.Summary.create ()
  and write_latency = Stat.Summary.create ()
  and meta_latency = Stat.Summary.create ()
  and read_hist_us = Stat.Histogram.create ()
  and write_hist_us = Stat.Histogram.create () in
  let busy = ref Time.span_zero and errors = ref 0 and last_at = ref started in
  let span_or_error = function
    | Ok span -> span
    | Error _ ->
      incr errors;
      Time.span_zero
  in
  let accounting_done = ref false in
  let rec account_tick engine =
    if not !accounting_done then begin
      Span.time sp.account (fun () -> M.account m);
      ignore (Engine.schedule_after engine ~after:(Time.span_s 60.0) account_tick)
    end
  in
  ignore (Engine.schedule_after engine ~after:(Time.span_s 60.0) account_tick);
  (* Card faults never replace the file system, so one route serves the
     whole run. *)
  let fs = Option.get (M.memfs m) in
  let dir =
    match Memfs.route fs "/data" with Ok d -> d | Error _ -> failwith "replay: no /data"
  in
  let names = Array.init (Array.fold_left max 0 c.file + 1) (fun id -> "f" ^ string_of_int id) in
  let offset_ns = Time.to_ns started in
  for i = 0 to c.n - 1 do
    let at = Time.of_ns (c.at_ns.(i) + offset_ns) in
    if Time.( < ) (Engine.now engine) at then
      Span.time sp.run_until (fun () -> Engine.run_until engine at);
    last_at := at;
    let tag = c.tag.(i) and name = names.(c.file.(i)) in
    let span =
      if tag = C.tag_write then begin
        let create_span =
          if Memfs.exists_in fs dir name then Time.span_zero
          else span_or_error (Span.time sp.create (fun () -> Memfs.create_in fs dir name))
        in
        Time.span_add create_span
          (span_or_error
             (Span.time sp.write (fun () ->
                  Memfs.write_in fs dir name ~offset:c.arg1.(i) ~bytes:c.arg2.(i))))
      end
      else if tag = C.tag_read then
        span_or_error
          (Span.time sp.read (fun () ->
               Memfs.read_in fs dir name ~offset:c.arg1.(i) ~bytes:c.arg2.(i)))
      else if tag = C.tag_create then
        span_or_error (Span.time sp.create (fun () -> Memfs.create_in fs dir name))
      else if tag = C.tag_truncate then
        span_or_error
          (Span.time sp.truncate (fun () -> Memfs.truncate_in fs dir name ~size:c.arg1.(i)))
      else span_or_error (Span.time sp.unlink (fun () -> Memfs.unlink_in fs dir name))
    in
    busy := Time.span_add !busy span;
    let us = Time.span_to_us span in
    if tag = C.tag_read then begin
      Stat.Summary.observe read_latency us;
      Stat.Histogram.observe read_hist_us us;
      Samples.add acc.reads us
    end
    else if tag = C.tag_write then begin
      Stat.Summary.observe write_latency us;
      Stat.Histogram.observe write_hist_us us;
      Samples.add acc.writes us
    end
    else Stat.Summary.observe meta_latency us;
    acc.pending_max <- max acc.pending_max (Engine.pending engine);
    (* The dirty count comes from [Manager.stats], which walks the delta
       chains under diff logging: it is sampled every 1024 records. *)
    let managers = Storage.Store.managers (store m) in
    acc.buffer_pending_max <- max acc.buffer_pending_max (Workload.buffer_pending managers);
    if i land 1023 = 0 then acc.dirty_max <- max acc.dirty_max (Workload.buffer_dirty managers);
    if i land 1023 = 0 then Gc_layer.poll ();
    Span.time sp.run_until (fun () -> Engine.run_until engine (Time.add (Engine.now engine) span))
  done;
  Span.time sp.drain_span (fun () -> Engine.run_until engine (Time.add !last_at drain));
  accounting_done := true;
  Span.time sp.account (fun () -> M.account m);
  (match M.memfs m with
  | Some f when f == fs -> ()
  | _ -> failwith "replay: the file system was replaced mid-run");
  acc.errors <- acc.errors + !errors;
  let elapsed = Time.diff (Engine.now engine) started in
  {
    M.ops_applied = c.n;
    op_errors = !errors;
    elapsed;
    busy = !busy;
    read_latency;
    write_latency;
    meta_latency;
    read_hist_us;
    write_hist_us;
    energy_j = energy_j m;
    battery_fraction_left = Device.Battery.fraction_remaining (M.battery m);
    manager_stats = Some (Storage.Store.stats (store m));
    lifetime_years = Some (Workload.lifetime_years (store m) ~elapsed);
    fault_log = List.rev !fault_log;
  }

let layers acc =
  let sp = acc.sp in
  List.concat
    [
      Span.profile "memfs.create" sp.create;
      Span.profile "memfs.write" sp.write;
      Span.profile "memfs.read" sp.read;
      Span.profile "memfs.truncate" sp.truncate;
      Span.profile "memfs.unlink" sp.unlink;
      Span.absent [ "manager.write_block"; "manager.read_block" ];
      [
        Metric.count "memfs.errors" acc.errors;
        Metric.count "engine.run_until.calls" sp.run_until.calls;
        Metric.v "engine.run_until.host_s" "s" (Span.host_s sp.run_until);
        Metric.v "engine.drain.host_s" "s" (Span.host_s sp.drain_span);
        Metric.count "engine.pending_max" acc.pending_max;
        Metric.count "machine.account.calls" sp.account.calls;
        Metric.v "machine.account.host_s" "s" (Span.host_s sp.account);
        Metric.count "machine.inject_fault.calls" sp.fault.calls;
        Metric.v "machine.inject_fault.host_s" "s" (Span.host_s sp.fault);
        Metric.count "write_buffer.pending_entries_max" acc.buffer_pending_max;
        Metric.count "write_buffer.dirty_max" acc.dirty_max;
      ];
    ]

(* --- Set-up ------------------------------------------------------------------- *)

let prepare ~parity ~seed ~size ~traced =
  let seconds = session_s size in
  let faults = faults ~parity ~seconds in
  let master = Rng.create ~seed in
  let steps = Array.make 4 0.0 in
  let timed i f =
    let t0 = Span.now_s () in
    let r = f () in
    steps.(i) <- steps.(i) +. (Span.now_s () -. t0);
    r
  in
  let acc = new_acc () in
  let current = ref None and result = ref None in
  let expected = ref 0 and closed = ref [] and check = ref (Ok ()) in
  let setup j =
    let trace =
      timed 0 (fun () ->
          Trace.Synth.generate Trace.Workloads.engineering
            ~rng:(Rng.split_ix master ~index:j) ~duration:(Time.span_s seconds))
    in
    let c = timed 1 (fun () -> C.compile trace.Trace.Synth.records) in
    let m = timed 2 (fun () -> M.create (config ~parity ~seed:((seed * 64) + j))) in
    timed 3 (fun () -> M.preload m trace.Trace.Synth.initial_files);
    expected := !expected + c.C.n;
    current := Some (m, c)
  in
  let run _ =
    let m, c = Option.get !current in
    result :=
      Some (if traced then replay_traced acc m c ~faults else M.run_compiled ~drain ~faults m c)
  in
  let close _ =
    let m, _ = Option.get !current in
    let r = Option.get !result in
    closed := session m r :: !closed;
    check := Result.bind !check (fun () -> Memfs.check (Option.get (M.memfs m)));
    current := None;
    result := None
  in
  let finish () =
    {
      Workload.outcome =
        outcome (List.rev !closed)
          (if traced then Workload.latency_metrics ~reads:acc.reads ~writes:acc.writes else []);
      expected_ops = !expected;
      check = !check;
      setup_steps =
        List.mapi
          (fun i name -> Metric.v name "s" steps.(i))
          [ "trace.generate_s"; "trace.compile_s"; "machine.create_s"; "machine.preload_s" ];
      layers = (if traced then layers acc else []);
    }
  in
  { Workload.sessions = sessions size; setup; run; close; finish }

let replay_eng = { Workload.name = "replay-eng"; prepare = prepare ~parity:false }
let array_parity = { Workload.name = "array-parity"; prepare = prepare ~parity:true }
