(* E4 — Section 3.1: files mapped in place from flash, copy-on-write.
   Shape to reproduce: reading a flash-resident file in place costs no DRAM
   copy and no copy latency; the conventional alternative (copy the file to
   DRAM first, then read it) pays both up front; a sparse write to a mapped
   file copies only the affected blocks into the DRAM write buffer, where
   overwrites are absorbed until the writeback delay expires. *)
open Sim

let file_bytes = 256 * Units.kib

let build () =
  let engine = Engine.create () in
  let flash =
    Device.Flash.create (Device.Flash.config ~nbanks:4 ~size_bytes:(4 * Units.mib) ())
  in
  let dram = Device.Dram.create ~size_bytes:(4 * Units.mib) ~battery_backed:true () in
  let manager = Storage.Manager.create Storage.Manager.default_config ~engine ~flash ~dram in
  let vm =
    Vmem.Vm.create
      { Vmem.Vm.page_bytes = 4096; dram_frames = 1024; swap = Vmem.Vm.No_swap }
      ~engine ~manager
  in
  let blocks =
    Array.init (file_bytes / 512) (fun _ ->
        let b = Storage.Manager.alloc manager in
        Storage.Manager.load_cold manager b;
        b)
  in
  (* Let the cold loads drain. *)
  Engine.run_until engine (Time.span_s 600.0 |> Time.add (Engine.now engine));
  Storage.Manager.reset_traffic manager;
  (engine, manager, vm, blocks)

(* Closed loop: advance the engine past each access before the next. *)
let sum_spans ~engine f n =
  let total = ref Time.span_zero in
  for i = 0 to n - 1 do
    let span = f i in
    total := Time.span_add !total span;
    Engine.run_until engine (Time.add (Engine.now engine) span)
  done;
  !total

let run () =
  Common.section "E4: map-in-place files and copy-on-write (Section 3.1)";
  let t =
    Table.create ~title:(Printf.sprintf "accessing a %s read-mostly file" (Table.cell_bytes file_bytes))
      ~columns:
        [
          ("approach", Table.Left);
          ("setup latency", Table.Right);
          ("full scan", Table.Right);
          ("DRAM copy held", Table.Right);
          ("flash traffic", Table.Right);
        ]
  in

  (* (a) Map in place, scan via the VM (4KB chunks). *)
  let engine, manager, vm, blocks = build () in
  let space = Vmem.Vm.new_space vm in
  let region, map_span =
    Vmem.Vm.map_file vm space ~kind:Vmem.Addr_space.Mapped_file
      ~prot:Vmem.Page_table.prot_r ~cow:true ~blocks ~bytes:file_bytes
  in
  let scan =
    sum_spans ~engine
      (fun i ->
        match
          Vmem.Vm.touch vm space
            ~addr:(region.Vmem.Addr_space.base + (i * 4096))
            ~access:`Read ~bytes:4096 ()
        with
        | Ok span -> span
        | Error _ -> Fmt.failwith "e4: fault")
      (file_bytes / 4096)
  in
  let stats = Storage.Manager.stats manager in
  Table.add_row t
    [
      "map in place (paper)";
      Table.cell_span map_span;
      Table.cell_span scan;
      "0B";
      Table.cell_bytes (512 * stats.Storage.Manager.blocks_flushed);
    ];

  (* (b) Conventional: copy the whole file into DRAM first. *)
  let engine2, manager2, _vm2, blocks2 = build () in
  let copy_start = Engine.now engine2 in
  let cursor = ref copy_start in
  let bytes = Storage.Manager.block_bytes manager2 in
  Array.iter
    (fun b -> cursor := Storage.Manager.read_block_at ~bytes manager2 ~at:!cursor b)
    blocks2;
  let dram2 = Storage.Manager.dram manager2 in
  let copy_in = Device.Dram.write dram2 ~bytes:file_bytes in
  let setup = Time.span_add (Time.diff !cursor copy_start) copy_in in
  let scan2 =
    sum_spans ~engine:engine2 (fun _ -> Device.Dram.read dram2 ~bytes:4096) (file_bytes / 4096)
  in
  Table.add_row t
    [
      "copy to DRAM first (conventional)";
      Table.cell_span setup;
      Table.cell_span scan2;
      Table.cell_bytes file_bytes;
      "0B";
    ];
  Table.print t;

  (* (c) COW behaviour: sparse writes copy only what is written. *)
  let engine3, manager3, vm3, blocks3 = build () in
  let space3 = Vmem.Vm.new_space vm3 in
  let region3, _ =
    Vmem.Vm.map_file vm3 space3 ~kind:Vmem.Addr_space.Mapped_file
      ~prot:Vmem.Page_table.prot_r ~cow:true ~blocks:blocks3 ~bytes:file_bytes
  in
  let dirty_writes = 24 in
  let wspan =
    sum_spans ~engine:engine3
      (fun i ->
        match
          Vmem.Vm.touch vm3 space3
            ~addr:(region3.Vmem.Addr_space.base + (i * 7 * 512))
            ~access:`Write ~bytes:64 ()
        with
        | Ok span -> span
        | Error _ -> Fmt.failwith "e4: cow fault")
      dirty_writes
  in
  let stats3 = Storage.Manager.stats manager3 in
  let t2 =
    Table.create ~title:"copy-on-write: sparse updates to the mapped file"
      ~columns:[ ("metric", Table.Left); ("value", Table.Right) ]
  in
  Table.add_row t2 [ "blocks written (64B each, 24 spots)"; Table.cell_i dirty_writes ];
  Table.add_row t2
    [ "blocks copied to the DRAM write buffer"; Table.cell_i stats3.Storage.Manager.dirty_blocks ];
  Table.add_row t2
    [ "file blocks untouched in flash";
      Table.cell_i (Array.length blocks3 - stats3.Storage.Manager.dirty_blocks) ];
  Table.add_row t2 [ "mean write latency"; Table.cell_span (Time.span_scale wspan (1.0 /. float_of_int dirty_writes)) ];
  (* Let the writeback expire and see what reaches flash. *)
  Engine.run_until engine3 (Time.add (Engine.now engine3) (Time.span_s 120.0));
  let stats3' = Storage.Manager.stats manager3 in
  Table.add_row t2
    [ "blocks reaching flash after writeback delay";
      Table.cell_i stats3'.Storage.Manager.blocks_flushed ];
  Table.print t2;
  Common.note
    "the erase/write penalty is deferred to the background; the foreground write cost is DRAM."
