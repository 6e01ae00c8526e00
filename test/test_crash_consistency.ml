(* Differential crash-consistency harness (the §3.3 safety argument, run
   live).  For crash points spread across an operation sequence and the
   full cleaner × wear × banking × buffering policy grid, one manager runs
   the prefix, crashes, and remounts; {!Scan_oracle} checks its decisions
   and counts before the crash and after the remount.  The pre-crash state
   is the manager's own crash-free reference: the crash destroys only
   DRAM, so everything flash-resident must come back exactly where it was,
   wear statistics and all, and the only permissible loss is what sat
   dirty in the write buffer. *)

open Sim
open Test_manager_diff.Ops

(* Everything the invariants need about a manager at one instant. *)
type snapshot = {
  blocks : (int * bool * (int * int) option) list;
      (* (block, dirty, flash placement), ascending by block *)
  segs : Storage.Manager.segment_snapshot array;
  evenness : Storage.Wear.evenness;
  dirty : int;
  free_segments : int;
  capacity : int;
}

let snapshot m =
  {
    blocks =
      List.map
        (fun b ->
          ( b,
            Storage.Manager.block_is_dirty m b,
            Storage.Manager.location_of_block m b ))
        (Storage.Manager.known_blocks m);
    segs = Storage.Manager.segment_snapshots m;
    evenness = Storage.Manager.wear_evenness m;
    dirty = (Storage.Manager.stats m).Storage.Manager.dirty_blocks;
    free_segments = (Storage.Manager.stats m).Storage.Manager.free_segments;
    capacity = Storage.Manager.capacity_blocks m;
  }

let fail ~ctx fmt = Printf.ksprintf (fun s -> Alcotest.failf "%s: %s" ctx s) fmt

(* The heart of the harness: pre-crash state vs the remounted manager. *)
let check_invariants ~ctx pre post report =
  let module M = Storage.Manager in
  let post_blocks = List.map (fun (b, _, _) -> b) post.blocks in
  let pre_flashed =
    List.filter_map (fun (b, _, loc) -> Option.map (fun l -> (b, l)) loc) pre.blocks
  in
  (* 1. Live flash blocks are never lost, and keep their exact placement. *)
  List.iter
    (fun (b, loc) ->
      match List.assoc_opt b (List.map (fun (b, _, l) -> (b, l)) post.blocks) with
      | Some (Some loc') when loc' = loc -> ()
      | Some _ -> fail ~ctx "flash block %d moved across the crash" b
      | None -> fail ~ctx "flash-resident block %d lost by the crash" b)
    pre_flashed;
  (* 2. Nothing appears from nowhere: recovered ⊆ known-before, and any
     recovered block that was not flash-resident must be a dirty block
     rolled back to an older durable version. *)
  List.iter
    (fun b ->
      match List.find_opt (fun (b', _, _) -> b' = b) pre.blocks with
      | None -> fail ~ctx "block %d resurrected from nothing" b
      | Some (_, dirty, loc) ->
        if loc = None && not dirty then
          fail ~ctx "block %d recovered but had no data at the crash" b)
    post_blocks;
  (* 3. Loss is bounded by the write buffer: every lost block was dirty,
     and the report accounts for the buffer exactly. *)
  let lost =
    List.filter (fun (b, _, _) -> not (List.mem b post_blocks)) pre.blocks
  in
  List.iter
    (fun (b, dirty, _) ->
      if not dirty then fail ~ctx "non-dirty block %d lost" b)
    lost;
  if List.length lost > pre.dirty then
    fail ~ctx "lost %d blocks but only %d were dirty" (List.length lost) pre.dirty;
  (* Per-card array checks pass [None]: the remount report is summed over
     every card, so the per-manager equality only holds in aggregate. *)
  (match report with
  | Some r ->
    if r.M.buffered_lost <> pre.dirty then
      fail ~ctx "report says %d buffered lost but buffer held %d" r.M.buffered_lost
        pre.dirty
  | None -> ());
  (* Rollback accounting: dirty blocks either vanish (lost) or roll back
     to a flash copy. *)
  let rollbacks =
    List.filter
      (fun (b, dirty, loc) -> dirty && loc = None && List.mem b post_blocks)
      pre.blocks
    |> List.length
  in
  let dirty_with_stale =
    List.filter (fun (b, dirty, _) -> dirty && List.mem b post_blocks) pre.blocks
    |> List.length
  in
  ignore dirty_with_stale;
  (* 4. Wear state is untouched by a crash: evenness, per-segment erase
     counts, and the retired set all match the crash-free reference. *)
  if post.evenness <> pre.evenness then fail ~ctx "wear evenness changed";
  if Array.length post.segs <> Array.length pre.segs then
    fail ~ctx "segment count changed";
  Array.iteri
    (fun i (s : M.segment_snapshot) ->
      let s' = post.segs.(i) in
      if s'.M.seg_erases <> s.M.seg_erases then
        fail ~ctx "segment %d erase count %d -> %d" i s.M.seg_erases s'.M.seg_erases;
      if s'.M.seg_retired <> s.M.seg_retired then
        fail ~ctx "segment %d retirement flipped" i;
      (* 5. Physical occupancy: programmed slots are exactly preserved;
         live counts only grow (rollback copies count as live again). *)
      if s'.M.seg_used <> s.M.seg_used then
        fail ~ctx "segment %d used slots %d -> %d" i s.M.seg_used s'.M.seg_used;
      if s'.M.seg_live < s.M.seg_live then
        fail ~ctx "segment %d lost live blocks (%d -> %d)" i s.M.seg_live
          s'.M.seg_live;
      (* State compatibility: a partially-filled Open segment remounts as
         Closed (or Free when it held nothing); everything else is
         preserved. *)
      match (s.M.seg_state, s'.M.seg_state) with
      | Storage.Segment.Open, (Storage.Segment.Closed | Storage.Segment.Free) -> ()
      | a, b when a = b -> ()
      | _ -> fail ~ctx "segment %d state changed incompatibly" i)
    pre.segs;
  let live_sum snaps =
    Array.fold_left (fun acc s -> acc + s.M.seg_live) 0 snaps
  in
  if live_sum post.segs <> live_sum pre.segs + rollbacks then
    fail ~ctx "live-block total %d, expected %d + %d rollbacks"
      (live_sum post.segs) (live_sum pre.segs) rollbacks;
  (* 6. Capacity accounting survives, and the remounted buffer is clean. *)
  if post.capacity <> pre.capacity then fail ~ctx "capacity changed";
  if post.free_segments <> pre.free_segments then
    fail ~ctx "free segments %d -> %d" pre.free_segments post.free_segments;
  if post.dirty <> 0 then fail ~ctx "remounted manager has dirty blocks"

let run_crash_point ?diff_log ~ctx ~ops ~crash_index ~cleaner ~wear ~banking
    ~buffer_blocks () =
  let prefix = List.filteri (fun i _ -> i < crash_index) ops in
  let cfg = config ?diff_log ~cleaner ~wear ~banking ~buffer_blocks () in
  let engine, m = mk cfg in
  run_ops (engine, m) prefix;
  (* 7. Decisions and counts match the scans on both sides of the crash. *)
  let agree moment m =
    match Scan_oracle.check cfg m with
    | Ok () -> ()
    | Error msg -> fail ~ctx "%s: %s" moment msg
  in
  agree "before the crash" m;
  let pre = snapshot m in
  let m', _, report = Storage.Manager.crash_and_remount m in
  agree "after the remount" m';
  let post = snapshot m' in
  check_invariants ~ctx pre post (Some report);
  (* 8. Remount is idempotent: crashing the already-clean remounted
     manager recovers the identical state and loses nothing. *)
  let m'', _, report2 = Storage.Manager.crash_and_remount m' in
  if report2.Storage.Manager.buffered_lost <> 0 then
    fail ~ctx "second remount claims buffered loss";
  let post2 = snapshot m'' in
  if post2.blocks <> post.blocks then fail ~ctx "remount not idempotent"

(* 24 configs x 9 crash points = 216 crash scenarios. *)
let crash_indices = [ 15; 40; 77; 120; 161; 200; 247; 301; 355 ]

let grid_case ?diff_log ~name ~seed ~len () =
  Alcotest.test_case name `Slow (fun () ->
      let ops = lcg_ops ~seed ~len in
      List.iter
        (fun cleaner ->
          List.iter
            (fun wear ->
              List.iter
                (fun banking ->
                  List.iter
                    (fun buffer_blocks ->
                      List.iter
                        (fun crash_index ->
                          let ctx =
                            Printf.sprintf "%s/%s/%s buf=%d crash@%d%s"
                              (Storage.Cleaner.policy_name cleaner)
                              (Storage.Wear.policy_name wear)
                              (Storage.Banks.policy_name banking)
                              buffer_blocks crash_index
                              (if diff_log = None then "" else " +diff")
                          in
                          run_crash_point ?diff_log ~ctx ~ops ~crash_index ~cleaner
                            ~wear ~banking ~buffer_blocks ())
                        crash_indices)
                    [ 0; 8 ])
                bankings)
            wears)
        cleaners)

(* A quick single-config pass so even `-q` runs exercise the crash path. *)
let quick_case =
  Alcotest.test_case "single config, all crash points" `Quick (fun () ->
      let ops = lcg_ops ~seed:42 ~len:360 in
      List.iter
        (fun crash_index ->
          run_crash_point
            ~ctx:(Printf.sprintf "quick crash@%d" crash_index)
            ~ops ~crash_index ~cleaner:Storage.Cleaner.Cost_benefit
            ~wear:Storage.Wear.Dynamic ~banking:Storage.Banks.Unified
            ~buffer_blocks:8 ())
        crash_indices)

(* The same single-config pass with page-differential logging on: delta
   chains are durable state, so every crash point must bring them back
   under the very same invariants (a chained block's reported placement
   is its base page, before and after). *)
let diff_quick_case =
  Alcotest.test_case "single config + diff logging, all crash points" `Quick
    (fun () ->
      let ops = lcg_ops ~seed:42 ~len:360 in
      List.iter
        (fun crash_index ->
          run_crash_point
            ~diff_log:Storage.Diff_log.default_config
            ~ctx:(Printf.sprintf "diff quick crash@%d" crash_index)
            ~ops ~crash_index ~cleaner:Storage.Cleaner.Cost_benefit
            ~wear:Storage.Wear.Dynamic ~banking:Storage.Banks.Unified
            ~buffer_blocks:8 ())
        crash_indices)

(* --- Multi-card arrays: crashes inside partial-stripe writes. ---------------
   The same differential idea one level up: a 2-card striped array runs
   the op stream, crashes, remounts every card.  Each card's manager must
   satisfy every single-manager invariant against its own pre-crash state
   (with the loss report checked in aggregate — it is summed over cards),
   and on top of that the array's arithmetic placement must keep holding:
   recovered globals still route to the same card and segment, and the
   rebuilt global cursor collides with nothing even when the cards lost
   different numbers of never-flushed tail allocations. *)

let mk_array ?(ncards = 2) ?policy ~strip_blocks ~buffer_blocks () =
  let engine = Engine.create () in
  let flashes =
    Array.init ncards (fun _ ->
        Device.Flash.create
          (Device.Flash.config ~nbanks:2 ~endurance_override:60
             ~size_bytes:(128 * 1024) ()))
  in
  let dram = Device.Dram.create ~size_bytes:Units.mib ~battery_backed:true () in
  let cfg =
    {
      Storage.Manager.default_config with
      Storage.Manager.segment_sectors = 8;
      buffer =
        {
          Storage.Write_buffer.capacity_blocks = buffer_blocks;
          writeback_delay = Time.span_ms 5.0;
          refresh_on_rewrite = true;
        };
    }
  in
  let striping =
    match policy with
    | Some p -> p
    | None -> Storage.Striping.Round_robin { strip_blocks }
  in
  (engine, Storage.Array.create ~front_cache_blocks:8 ~striping cfg ~engine ~flashes ~dram)

(* [run_ops] over the array surface: same stream shape, so crash points
   land mid-stream exactly like the single-manager grid — including
   inside partial stripes, since fresh allocations interleave freely with
   strip boundaries. *)
(* Passing [live] lets a caller split the stream around an event (a card
   eject) and resume with the same working set. *)
let run_ops_array ?(live = ref []) (engine, a) ops =
  let cap = Storage.Array.capacity_blocks a * 6 / 10 in
  let nlive = ref (List.length !live) in
  List.iter
    (fun n ->
      match op_of_int n with
      | Write k when !nlive > 0 ->
        ignore (Storage.Array.write_block a (List.nth !live (k mod !nlive)))
      | Write _ | Fresh when !nlive < cap ->
        let b = Storage.Array.alloc a in
        ignore (Storage.Array.write_block a b);
        live := b :: !live;
        incr nlive
      | Write _ | Fresh -> ()
      | Free k when !nlive > 0 ->
        let b = List.nth !live (k mod !nlive) in
        Storage.Array.free_block a b;
        live := List.filter (fun x -> x <> b) !live;
        decr nlive
      | Free _ -> ()
      | Cold when !nlive < cap ->
        let b = Storage.Array.alloc a in
        Storage.Array.load_cold a b;
        live := b :: !live;
        incr nlive
      | Cold -> ()
      | Advance ms ->
        Engine.run_until engine
          (Time.add (Engine.now engine) (Time.span_ms (float_of_int ms))))
    ops

let array_managers a = Array.init (Storage.Array.ncards a) (Storage.Array.manager a)

let run_array_crash_point ~ctx ~ops ~crash_index ~strip_blocks ~buffer_blocks =
  let prefix = List.filteri (fun i _ -> i < crash_index) ops in
  let engine, a = mk_array ~strip_blocks ~buffer_blocks () in
  run_ops_array (engine, a) prefix;
  let pre = Array.map snapshot (array_managers a) in
  let pre_dirty_total = Array.fold_left (fun acc s -> acc + s.dirty) 0 pre in
  let policy = Storage.Array.striping a in
  let a', _span, report = Storage.Array.crash_and_remount a in
  let post = Array.map snapshot (array_managers a') in
  (* Every single-manager invariant, per card, against its own history. *)
  Array.iteri
    (fun card pre_card ->
      check_invariants
        ~ctx:(Printf.sprintf "%s card%d" ctx card)
        pre_card post.(card) None)
    pre;
  (* The summed report accounts for every card's buffer exactly. *)
  if report.Storage.Manager.buffered_lost <> pre_dirty_total then
    fail ~ctx "summed report says %d buffered lost but the buffers held %d"
      report.Storage.Manager.buffered_lost pre_dirty_total;
  (* Arithmetic placement survives: each recovered local maps back to a
     global that the array still routes to the same card and segment. *)
  Array.iteri
    (fun card post_card ->
      List.iter
        (fun (local, _, _) ->
          let g = Storage.Striping.global_of policy ~ncards:2 ~card ~local in
          if Storage.Array.card_of_block a' g <> card then
            fail ~ctx "global %d re-routed off card %d" g card;
          if not (Storage.Array.block_exists a' g) then
            fail ~ctx "recovered local %d on card %d unreachable as global %d" local
              card g;
          let direct =
            Storage.Manager.segment_of_block (Storage.Array.manager a' card) local
          in
          if Storage.Array.segment_of_block a' g <> direct then
            fail ~ctx "global %d disagrees with card %d about its segment" g card)
        post_card.blocks)
    post;
  (* The rebuilt cursor is collision-free: a fresh stripe of allocations
     lands where the arithmetic says (the array asserts placement on
     every alloc), strictly above every recovered global. *)
  let top =
    Array.to_seq post
    |> Seq.mapi (fun card s ->
           List.fold_left
             (fun acc (local, _, _) ->
               max acc (Storage.Striping.global_of policy ~ncards:2 ~card ~local))
             (-1) s.blocks)
    |> Seq.fold_left max (-1)
  in
  let fresh = List.init ((2 * strip_blocks) + 3) (fun _ -> Storage.Array.alloc a') in
  List.iter
    (fun g ->
      if g <= top then fail ~ctx "fresh global %d collides (top recovered %d)" g top;
      ignore (Storage.Array.write_block a' g))
    fresh;
  ignore (Storage.Array.flush_all a');
  (* Idempotence one level up: remounting the remounted array changes
     nothing it recovered (modulo the fresh stripe, which is now durable). *)
  let a'', _, report2 = Storage.Array.crash_and_remount a' in
  if report2.Storage.Manager.buffered_lost <> 0 then
    fail ~ctx "second remount claims buffered loss";
  Array.iteri
    (fun card post_card ->
      let again = snapshot (Storage.Array.manager a'' card) in
      let recovered_locals =
        List.filter
          (fun (local, _, _) ->
            List.exists (fun (l, _, _) -> l = local) post_card.blocks)
          again.blocks
      in
      if List.length recovered_locals < List.length post_card.blocks then
        fail ~ctx "card %d dropped recovered blocks on the second remount" card)
    post

let array_quick_case =
  Alcotest.test_case "2-card array, strip grid x crash points" `Quick (fun () ->
      let ops = lcg_ops ~seed:42 ~len:360 in
      List.iter
        (fun strip_blocks ->
          List.iter
            (fun crash_index ->
              run_array_crash_point
                ~ctx:(Printf.sprintf "array strip=%d crash@%d" strip_blocks crash_index)
                ~ops ~crash_index ~strip_blocks ~buffer_blocks:8)
            crash_indices)
        [ 1; 4 ])

let array_grid_case =
  Alcotest.test_case "2-card array, strip x buffer grid" `Slow (fun () ->
      let ops = lcg_ops ~seed:97 ~len:360 in
      List.iter
        (fun strip_blocks ->
          List.iter
            (fun buffer_blocks ->
              List.iter
                (fun crash_index ->
                  run_array_crash_point
                    ~ctx:
                      (Printf.sprintf "array strip=%d buf=%d crash@%d" strip_blocks
                         buffer_blocks crash_index)
                    ~ops ~crash_index ~strip_blocks ~buffer_blocks)
                crash_indices)
            [ 0; 8 ])
        [ 1; 4; 8 ])

(* Crashes at every fill level of a partial stripe: whole stripes made
   durable, then [fill] fresh allocations left dirty across the strip
   boundary.  Exactly [fill] blocks may die, and the survivors (and the
   re-aligned cursor) must come back consistent. *)
let test_partial_stripe_crashes () =
  List.iter
    (fun strip_blocks ->
      let stripe = 2 * strip_blocks in
      let fills =
        List.sort_uniq compare
          [ 1; strip_blocks; strip_blocks + 1; stripe - 1; stripe + 1 ]
        |> List.filter (fun f -> f >= 1)
      in
      List.iter
        (fun fill ->
          let ctx = Printf.sprintf "strip=%d fill=%d" strip_blocks fill in
          let engine, a = mk_array ~strip_blocks ~buffer_blocks:64 () in
          let burst n =
            List.init n (fun _ ->
                let g = Storage.Array.alloc a in
                ignore (Storage.Array.write_block a g);
                g)
          in
          let durable = burst (4 * stripe) in
          Engine.run_until engine (Time.add (Engine.now engine) (Time.span_ms 50.0));
          let tail = burst fill in
          let a', _span, report = Storage.Array.crash_and_remount a in
          if report.Storage.Manager.buffered_lost <> fill then
            fail ~ctx "lost %d buffered blocks, expected the %d-block tail"
              report.Storage.Manager.buffered_lost fill;
          List.iter
            (fun g ->
              if not (Storage.Array.block_exists a' g) then
                fail ~ctx "durable block %d lost" g)
            durable;
          List.iter
            (fun g ->
              if Storage.Array.block_exists a' g then
                fail ~ctx "never-flushed tail block %d resurrected" g)
            tail;
          (* The tail died entirely, so its handles were never durable:
             the cursor resumes at the first tail global and the next
             stripe of allocations is collision-free by the arithmetic
             (asserted inside the array on every alloc). *)
          let resumed = Storage.Array.alloc a' in
          if resumed <> 4 * stripe then
            fail ~ctx "cursor resumed at %d, expected %d" resumed (4 * stripe);
          ignore (Storage.Array.write_block a' resumed);
          ignore (Storage.Array.flush_all a'))
        fills)
    [ 1; 4 ]

(* --- Parity arrays: surprise eject mid-stream, degraded service, rebuild. ---
   The acceptance grid one level up from crashes: a 3-card parity array
   runs the same op stream, loses a card by surprise at an arbitrary
   point, and must (a) keep every live block reachable and readable —
   the degraded-equivalence assertion: eject + reconstruct ≡ before —
   (b) keep serving the rest of the stream degraded, and (c) return to
   full health when a replacement card rebuilds, optionally with a power
   crash in between while still degraded. *)

let all_alive_and_readable ~ctx a live =
  List.iter
    (fun g ->
      if not (Storage.Array.block_exists a g) then fail ~ctx "live block %d vanished" g;
      match Storage.Array.read_block a g with
      | (_ : Time.span) -> ()
      | exception e ->
        fail ~ctx "live block %d unreadable: %s" g (Printexc.to_string e))
    live

let rebuild_to_health ~ctx engine a ~card =
  Storage.Array.reinsert_card a ~card;
  let tries = ref 0 in
  while Storage.Array.health a <> `Healthy && !tries < 120 do
    Engine.run_until engine (Time.add (Engine.now engine) (Time.span_s 1.0));
    incr tries
  done;
  if Storage.Array.health a <> `Healthy then
    fail ~ctx "rebuild did not complete within %d simulated seconds" !tries

let run_parity_eject_point ~ctx ~ops ~eject_index ~victim ~crash_while_degraded
    ~strip_blocks ~buffer_blocks =
  let prefix = List.filteri (fun i _ -> i < eject_index) ops in
  let suffix = List.filteri (fun i _ -> i >= eject_index) ops in
  let engine, a =
    mk_array ~ncards:3
      ~policy:(Storage.Striping.Parity { strip_blocks; rotate = true })
      ~strip_blocks ~buffer_blocks ()
  in
  let live = ref [] in
  run_ops_array ~live (engine, a) prefix;
  let r = Storage.Array.eject_card ~surprise:true a ~card:victim in
  ignore (r : Storage.Array.eject_report);
  if Storage.Array.health a <> `Degraded victim then fail ~ctx "not degraded after eject";
  (* Degraded equivalence: the eject changes nothing the client can see. *)
  all_alive_and_readable ~ctx:(ctx ^ " (just ejected)") a !live;
  (* The stream continues against the degraded array — writes, frees,
     cold loads, and fresh allocations that route to the missing card. *)
  run_ops_array ~live (engine, a) suffix;
  all_alive_and_readable ~ctx:(ctx ^ " (degraded, stream done)") a !live;
  let a, live =
    if not crash_while_degraded then (a, !live)
    else begin
      (* Power dies while the card is still out.  Whatever had a durable
         home — its own segment, or its parity block's — must come back;
         the degraded state itself must survive the remount.  A dirty
         block's flash copy (its own or its parity's) is stale, and the
         remount discards stale versions, so dirty blocks don't count. *)
      let durable =
        List.filter
          (fun g ->
            Storage.Array.segment_of_block a g <> None
            && not (Storage.Array.block_is_dirty a g))
          !live
      in
      let a', _span, _report = Storage.Array.crash_and_remount a in
      if Storage.Array.health a' <> `Degraded victim then
        fail ~ctx "crash while degraded dropped the degraded state";
      all_alive_and_readable ~ctx:(ctx ^ " (after degraded crash)") a' durable;
      (a', durable)
    end
  in
  rebuild_to_health ~ctx engine a ~card:victim;
  let ps = Storage.Array.parity_stats a in
  if
    List.exists (fun g -> Storage.Array.card_of_block a g = victim) live
    && ps.Storage.Array.rebuilt_blocks = 0
  then fail ~ctx "the victim held data but the rebuild streamed nothing";
  all_alive_and_readable ~ctx:(ctx ^ " (rebuilt)") a live;
  ignore (Storage.Array.flush_all a);
  List.iter
    (fun g ->
      if
        Storage.Array.card_of_block a g = victim
        && Storage.Array.segment_of_block a g = None
      then fail ~ctx "rebuilt block %d has no flash home" g)
    live;
  (* Allocation resumes collision-free (the array asserts placement on
     every alloc) and the fresh stripe becomes durable. *)
  let fresh = List.init (3 * strip_blocks) (fun _ -> Storage.Array.alloc a) in
  List.iter (fun g -> ignore (Storage.Array.write_block a g)) fresh;
  ignore (Storage.Array.flush_all a)

let parity_quick_case =
  Alcotest.test_case "3-card parity: eject/degraded/rebuild points" `Quick (fun () ->
      let ops = lcg_ops ~seed:42 ~len:360 in
      List.iter
        (fun crash_while_degraded ->
          List.iter
            (fun strip_blocks ->
              List.iter
                (fun eject_index ->
                  run_parity_eject_point
                    ~ctx:
                      (Printf.sprintf "parity strip=%d eject@%d%s" strip_blocks
                         eject_index
                         (if crash_while_degraded then " +crash" else ""))
                    ~ops ~eject_index ~victim:1 ~crash_while_degraded ~strip_blocks
                    ~buffer_blocks:8)
                [ 40; 161; 301 ])
            [ 1; 4 ])
        [ false; true ])

let parity_grid_case =
  Alcotest.test_case "3-card parity: victim x strip x eject grid" `Slow (fun () ->
      let ops = lcg_ops ~seed:97 ~len:360 in
      List.iter
        (fun victim ->
          List.iter
            (fun crash_while_degraded ->
              List.iter
                (fun strip_blocks ->
                  List.iter
                    (fun eject_index ->
                      run_parity_eject_point
                        ~ctx:
                          (Printf.sprintf "parity victim=%d strip=%d eject@%d%s"
                             victim strip_blocks eject_index
                             (if crash_while_degraded then " +crash" else ""))
                        ~ops ~eject_index ~victim ~crash_while_degraded
                        ~strip_blocks ~buffer_blocks:8)
                    crash_indices)
                [ 1; 4 ])
            [ false; true ])
        [ 0; 1; 2 ])

(* --- Machine-level faults: battery state decides what survives. ------------- *)

let solid_machine ?(backup_wh = 0.1) () =
  Ssmc.Machine.create (Ssmc.Config.solid_state ~backup_wh ~seed:11 ())

let write_some machine n =
  let memfs = Option.get (Ssmc.Machine.memfs machine) in
  (match Fs.Memfs.mkdir memfs "/data" with
  | Ok _ | Error Fs.Fs_error.Eexist -> ()
  | Error e -> Alcotest.failf "mkdir: %s" (Fmt.str "%a" Fs.Fs_error.pp e));
  for i = 0 to n - 1 do
    let path = Printf.sprintf "/data/f%d" i in
    (match Fs.Memfs.create memfs path with
    | Ok _ | Error Fs.Fs_error.Eexist -> ()
    | Error e -> Alcotest.failf "create: %s" (Fmt.str "%a" Fs.Fs_error.pp e));
    match Fs.Memfs.write memfs path ~offset:0 ~bytes:1024 with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "write: %s" (Fmt.str "%a" Fs.Fs_error.pp e)
  done

let test_warm_fault_loses_nothing () =
  let machine = solid_machine () in
  write_some machine 8;
  let mgr_before = Option.get (Ssmc.Machine.manager machine) in
  let dirty = (Storage.Manager.stats mgr_before).Storage.Manager.dirty_blocks in
  Alcotest.(check bool) "buffer has dirty data" true (dirty > 0);
  let o = Ssmc.Machine.inject_fault machine Fault.Power_failure in
  Alcotest.(check bool) "battery held" true (o.Ssmc.Machine.survived_by <> `Nothing);
  Alcotest.(check int) "nothing lost" 0 o.Ssmc.Machine.blocks_lost;
  Alcotest.(check bool) "no restart" false o.Ssmc.Machine.cold_restart;
  Alcotest.(check bool) "manager untouched" true
    (Option.get (Ssmc.Machine.manager machine) == mgr_before);
  let memfs = Option.get (Ssmc.Machine.memfs machine) in
  match Fs.Memfs.check memfs with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "fsck after warm fault: %s" msg

let test_cold_fault_bounded_loss () =
  let machine = solid_machine ~backup_wh:0.0 () in
  write_some machine 8;
  let mgr = Option.get (Ssmc.Machine.manager machine) in
  let dirty = (Storage.Manager.stats mgr).Storage.Manager.dirty_blocks in
  (* No backup: depleting the primary forces a cold restart. *)
  let o = Ssmc.Machine.inject_fault machine Fault.Battery_depletion in
  Alcotest.(check bool) "nothing held" true (o.Ssmc.Machine.survived_by = `Nothing);
  Alcotest.(check bool) "cold restart" true o.Ssmc.Machine.cold_restart;
  Alcotest.(check int) "dirty counted" dirty o.Ssmc.Machine.dirty_at_fault;
  Alcotest.(check bool) "loss bounded by buffer" true
    (o.Ssmc.Machine.blocks_lost <= dirty);
  (match o.Ssmc.Machine.remount with
  | Some r -> Alcotest.(check int) "report matches" dirty r.Storage.Manager.buffered_lost
  | None -> Alcotest.fail "cold restart must carry a remount report");
  (* The machine came back: fsck passes and it takes new writes. *)
  let memfs = Option.get (Ssmc.Machine.memfs machine) in
  (match Fs.Memfs.check memfs with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "fsck after cold restart: %s" msg);
  write_some machine 2;
  match Fs.Memfs.check (Option.get (Ssmc.Machine.memfs machine)) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "fsck after resumed writes: %s" msg

let test_swap_rides_backup () =
  let machine = solid_machine ~backup_wh:0.1 () in
  write_some machine 4;
  let o = Ssmc.Machine.inject_fault machine Fault.Battery_swap in
  Alcotest.(check bool) "backup carried the swap" true
    (o.Ssmc.Machine.survived_by = `Backup_battery);
  Alcotest.(check int) "nothing lost" 0 o.Ssmc.Machine.blocks_lost;
  let b = Ssmc.Machine.battery machine in
  Alcotest.(check (float 1e-9)) "fresh primary" 1.0 (Device.Battery.fraction_remaining b)

let test_run_seq_with_faults () =
  (* A trace-driven run with a mid-run fault schedule: the replay resumes
     across each fault and the outcomes land in the result, warm ones
     losing nothing. *)
  let machine = solid_machine () in
  let trace =
    Trace.Synth.generate Trace.Workloads.pim ~rng:(Rng.create ~seed:5)
      ~duration:(Time.span_s 30.0)
  in
  Ssmc.Machine.preload machine trace.Trace.Synth.initial_files;
  let faults =
    Fault.schedule
      [
        { Fault.after = Time.span_s 5.0; kind = Fault.Power_failure };
        { Fault.after = Time.span_s 12.0; kind = Fault.Battery_swap };
        { Fault.after = Time.span_s 21.0; kind = Fault.Battery_depletion };
      ]
  in
  let result = Ssmc.Machine.run ~faults machine trace.Trace.Synth.records in
  Alcotest.(check int) "all faults fired" 3 (List.length result.Ssmc.Machine.fault_log);
  List.iter
    (fun o ->
      if o.Ssmc.Machine.survived_by <> `Nothing then begin
        Alcotest.(check int) "warm fault loses nothing" 0 o.Ssmc.Machine.blocks_lost;
        Alcotest.(check bool) "warm fault needs no remount" true
          (o.Ssmc.Machine.remount = None)
      end
      else
        Alcotest.(check bool) "cold loss bounded" true
          (o.Ssmc.Machine.blocks_lost <= o.Ssmc.Machine.dirty_at_fault))
    result.Ssmc.Machine.fault_log;
  Alcotest.(check bool) "trace resumed after faults" true
    (result.Ssmc.Machine.ops_applied > 0);
  match Fs.Memfs.check (Option.get (Ssmc.Machine.memfs machine)) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "fsck after faulted run: %s" msg

let test_conventional_machine_rejects_faults () =
  let machine = Ssmc.Machine.create (Ssmc.Config.conventional ()) in
  Alcotest.check_raises "conventional machine"
    (Invalid_argument "Machine: fault injection requires solid-state storage")
    (fun () -> ignore (Ssmc.Machine.inject_fault machine Fault.Power_failure))

let suite =
  [
    quick_case;
    diff_quick_case;
    grid_case ~name:"policy grid x crash points" ~seed:42 ~len:360 ();
    grid_case ~diff_log:Storage.Diff_log.default_config
      ~name:"policy grid x crash points (diff logging)" ~seed:42 ~len:360 ();
    array_quick_case;
    array_grid_case;
    Alcotest.test_case "partial-stripe crash points (2 cards)" `Quick
      test_partial_stripe_crashes;
    parity_quick_case;
    parity_grid_case;
    Alcotest.test_case "warm fault loses nothing" `Quick test_warm_fault_loses_nothing;
    Alcotest.test_case "cold fault: loss bounded by buffer" `Quick
      test_cold_fault_bounded_loss;
    Alcotest.test_case "battery swap rides the backup" `Quick test_swap_rides_backup;
    Alcotest.test_case "run_seq with a fault schedule" `Quick test_run_seq_with_faults;
    Alcotest.test_case "conventional machine rejects faults" `Quick
      test_conventional_machine_rejects_faults;
  ]
