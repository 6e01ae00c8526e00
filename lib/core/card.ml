open Sim

type checkpoint = (string * int * (int * Storage.Manager.block) list) list

type state = {
  manager : Storage.Manager.t;
  fs : Fs.Memfs.t;
}

type t = {
  card_name : string;
  engine : Engine.t;
  host_dram : Device.Dram.t;
  card_flash : Device.Flash.t;
  (* The manager configuration the card was created with: every insertion
     mounts the card's flash with it. *)
  config : Storage.Manager.config;
  mutable state : state option;  (** None while ejected. *)
  (* The namespace checkpoint written to the card at the last orderly
     eject; conceptually stored in reserved sectors on the card, so it
     travels with it. *)
  mutable checkpoint : checkpoint option;
}

let create ?(name = "flash-card") ?(nbanks = 2) ?(spec = Device.Specs.intel_flash)
    ?(manager = Storage.Manager.default_config) ~size_mb ~engine ~host_dram () =
  let card_flash =
    Device.Flash.create
      (Device.Flash.config ~spec ~nbanks ~size_bytes:(size_mb * Units.mib) ())
  in
  let mgr = Storage.Manager.create manager ~engine ~flash:card_flash ~dram:host_dram in
  let fs = Fs.Memfs.create_fs ~manager:mgr () in
  {
    card_name = name;
    engine;
    host_dram;
    card_flash;
    config = manager;
    state = Some { manager = mgr; fs };
    checkpoint = None;
  }

let name t = t.card_name
let flash t = t.card_flash
let size_bytes t = Device.Flash.size_bytes t.card_flash
let inserted t = t.state <> None

let state t =
  match t.state with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Card %s: not inserted" t.card_name)

let fs t = (state t).fs
let manager t = (state t).manager

type eject_report = {
  flushed_blocks : int;
  lost_blocks : int;
  eject_latency : Time.span;
}

let pp_eject_report ppf r =
  Fmt.pf ppf "flushed=%d lost=%d latency=%a" r.flushed_blocks r.lost_blocks Time.pp_span
    r.eject_latency

(* Writing the checkpoint charges the card for its metadata bytes. *)
let write_checkpoint t st =
  let entries = Fs.Memfs.enumerate st.fs in
  let bytes =
    List.fold_left
      (fun acc (path, _, blocks) -> acc + String.length path + 16 + (8 * List.length blocks))
      64 entries
  in
  let cursor = ref (Engine.now t.engine) in
  let sector_bytes = Device.Flash.sector_bytes t.card_flash in
  let sectors = Units.ceil_div bytes sector_bytes in
  let spec = Device.Flash.spec t.card_flash in
  (* The reserved checkpoint area is rewritten in place: model its cost as
     [sectors] erase+program cycles on bank 0's first sectors, at the
     card's own timings. *)
  for s = 0 to sectors - 1 do
    (match Device.Flash.read t.card_flash ~now:!cursor ~sector:s ~bytes:16 with
    | finish -> cursor := finish
    | exception Device.Flash.Error Device.Flash.Bad_sector -> ());
    cursor := Time.add !cursor spec.Device.Specs.f_erase;
    cursor := Time.add !cursor (Device.Specs.access_time spec.f_write ~bytes:sector_bytes)
  done;
  t.checkpoint <- Some entries;
  Time.diff !cursor (Engine.now t.engine)

let eject ?(surprise = false) t =
  let st = state t in
  let before = Storage.Manager.stats st.manager in
  let dirty = before.Storage.Manager.dirty_blocks in
  let report =
    if surprise then begin
      (* The buffer (host DRAM) still holds the card's dirty data: gone.
         Detaching also cancels the pending writeback timer — without it
         the ejected manager would keep programming a card that is no
         longer in the slot. *)
      let lost = Storage.Manager.detach st.manager in
      { flushed_blocks = 0; lost_blocks = lost; eject_latency = Time.span_zero }
    end
    else begin
      let flush_span = Storage.Manager.flush_all st.manager in
      let ckpt_span = write_checkpoint t st in
      ignore (Storage.Manager.detach st.manager);
      {
        flushed_blocks = dirty;
        lost_blocks = 0;
        eject_latency = Time.span_add flush_span ckpt_span;
      }
    end
  in
  t.state <- None;
  report

type insert_report = { scan_time : Time.span; blocks_recovered : int }

let pp_insert_report ppf r =
  Fmt.pf ppf "scan=%a recovered=%d" Time.pp_span r.scan_time r.blocks_recovered

let insert t =
  if inserted t then invalid_arg (Printf.sprintf "Card %s: already inserted" t.card_name);
  (* Mount the card from its own sector headers. *)
  let manager, scan_time, report =
    Storage.Manager.mount t.config ~engine:t.engine ~flash:t.card_flash ~dram:t.host_dram
  in
  let fs = Fs.Memfs.create_fs ~manager () in
  (* Rebuild the namespace from the checkpoint the card carries; files
     whose blocks did not survive (dirty at a surprise eject, never
     flushed) are dropped. *)
  let adopted = Hashtbl.create 64 in
  (match t.checkpoint with
  | None -> ()
  | Some entries ->
    List.iter
      (fun (path, size, blocks) ->
        if List.for_all (fun (_, b) -> Storage.Manager.block_exists manager b) blocks
        then begin
          (* Recreate parent directories along the way. *)
          (match Fs.Path.parse path with
          | Ok components ->
            let rec mkdirs prefix = function
              | [] | [ _ ] -> ()
              | dir :: rest ->
                let p = prefix ^ "/" ^ dir in
                (match Fs.Memfs.mkdir fs p with Ok _ | Error _ -> ());
                mkdirs p rest
            in
            mkdirs "" components
          | Error _ -> ());
          match Fs.Memfs.adopt fs path ~size ~blocks with
          | Ok () -> List.iter (fun (_, b) -> Hashtbl.replace adopted b ()) blocks
          | Error _ -> ()
        end)
      entries);
  (* Any surviving blocks the checkpoint does not reach are scavenged into
     numbered files, so no recovered data is silently dropped. *)
  let bs = Storage.Manager.block_bytes manager in
  let counter = ref 0 in
  List.iter
    (fun b ->
      if (not (Hashtbl.mem adopted b)) && Storage.Manager.segment_of_block manager b <> None
      then begin
        let path = Printf.sprintf "/recovered-%d" !counter in
        incr counter;
        match Fs.Memfs.adopt fs path ~size:bs ~blocks:[ (0, b) ] with
        | Ok () -> ()
        | Error _ -> ()
      end)
    (Storage.Manager.known_blocks manager);
  t.state <- Some { manager; fs };
  { scan_time; blocks_recovered = report.Storage.Manager.live_recovered }
