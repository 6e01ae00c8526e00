open Sim

type program = { prog_name : string; text_bytes : int; data_bytes : int }

let install_text manager program =
  if program.text_bytes <= 0 then invalid_arg "Exec.install_text: empty text";
  let bs = Storage.Manager.block_bytes manager in
  let n = Units.ceil_div program.text_bytes bs in
  Array.init n (fun _ ->
      let b = Storage.Manager.alloc manager in
      Storage.Manager.load_cold manager b;
      b)

type strategy = Execute_in_place | Copy_to_dram | Load_from_disk of Device.Disk.t

let strategy_name = function
  | Execute_in_place -> "execute-in-place"
  | Copy_to_dram -> "copy-to-dram"
  | Load_from_disk _ -> "load-from-disk"

type launched = {
  space : Addr_space.t;
  text : Addr_space.region;
  data : Addr_space.region;
  launch_latency : Time.span;
  text_dram_bytes : int;
}

let ok_or_fault = function
  | Ok span -> span
  | Error _ -> invalid_arg "Exec: unexpected fault on a region we just mapped"

(* Copy text into anonymous pages: every page is zero-filled (frame
   allocation) and then overwritten with text read from the source. *)
let load_text vm space region ~read_source =
  let page_bytes = Addr_space.page_bytes space in
  let span = ref Time.span_zero in
  for i = 0 to region.Addr_space.pages - 1 do
    let addr = region.Addr_space.base + (i * page_bytes) in
    span := Time.span_add !span (read_source i);
    span :=
      Time.span_add !span
        (ok_or_fault (Vm.touch vm space ~addr ~access:`Write ~bytes:page_bytes ()))
  done;
  !span

let p_launches = Probe.counter "vm.exec.launches"
let p_fetches = Probe.counter "vm.exec.fetches"

let launch vm program ~text_blocks strategy =
  Probe.incr p_launches;
  let space = Vm.new_space vm in
  let page_bytes = Addr_space.page_bytes space in
  let data, data_span =
    Vm.map_anon vm space ~kind:Addr_space.Data ~prot:Page_table.prot_rw
      ~bytes:(max 1 program.data_bytes)
  in
  match strategy with
  | Execute_in_place ->
    let text, text_span =
      Vm.map_file vm space ~kind:Addr_space.Text ~prot:Page_table.prot_rx ~cow:false
        ~blocks:text_blocks ~bytes:program.text_bytes
    in
    {
      space;
      text;
      data;
      launch_latency = Time.span_add data_span text_span;
      text_dram_bytes = 0;
    }
  | Copy_to_dram ->
    let text, text_span =
      Vm.map_anon vm space ~kind:Addr_space.Text ~prot:Page_table.prot_rwx
        ~bytes:program.text_bytes
    in
    let manager = Vm.manager vm in
    let blocks_per_page = page_bytes / Storage.Manager.block_bytes manager in
    (* Thread the read cursor across the whole sequential copy. *)
    let cursor = ref (Sim.Engine.now (Storage.Manager.engine manager)) in
    let read_source i =
      let before = !cursor in
      for j = i * blocks_per_page to min ((i + 1) * blocks_per_page) (Array.length text_blocks) - 1 do
        cursor :=
          Storage.Manager.read_block_at
            ~bytes:(Storage.Manager.block_bytes manager)
            manager ~at:!cursor text_blocks.(j)
      done;
      Time.diff !cursor before
    in
    let copy_span = load_text vm space text ~read_source in
    {
      space;
      text;
      data;
      launch_latency = Time.span_add data_span (Time.span_add text_span copy_span);
      text_dram_bytes = text.Addr_space.pages * page_bytes;
    }
  | Load_from_disk disk ->
    let text, text_span =
      Vm.map_anon vm space ~kind:Addr_space.Text ~prot:Page_table.prot_rwx
        ~bytes:program.text_bytes
    in
    let cursor = ref Time.zero in
    let read_source i =
      (* Sequential image read: one page-sized disk transfer per page. *)
      let sectors_per_page = page_bytes / 512 in
      let capacity = Device.Disk.capacity_bytes disk / 512 in
      let lba = i * sectors_per_page mod max 1 (capacity - sectors_per_page) in
      let before = !cursor in
      let op = Device.Disk.access disk ~now:before ~lba ~bytes:page_bytes ~kind:`Read in
      cursor := op.Device.Disk.finish;
      Time.diff op.Device.Disk.finish before
    in
    let copy_span = load_text vm space text ~read_source in
    {
      space;
      text;
      data;
      launch_latency = Time.span_add data_span (Time.span_add text_span copy_span);
      text_dram_bytes = text.Addr_space.pages * page_bytes;
    }

let run vm launched ~rng ~fetches =
  Probe.add p_fetches fetches;
  let page_bytes = Addr_space.page_bytes launched.space in
  let text = launched.text in
  let text_bytes = text.Addr_space.pages * page_bytes in
  let line = 64 in
  let engine = Storage.Manager.engine (Vm.manager vm) in
  (* Closed loop: the CPU issues the next fetch when this one completes. *)
  let advance span =
    Sim.Engine.run_until engine (Time.add (Sim.Engine.now engine) span)
  in
  let total = ref Time.span_zero in
  let pc = ref text.Addr_space.base in
  for i = 0 to fetches - 1 do
    (* 0.9 sequential, 0.1 jump to a random line. *)
    if Rng.bernoulli rng ~p:0.1 then
      pc := text.Addr_space.base + (Rng.int rng (max 1 (text_bytes / line)) * line);
    let span =
      ok_or_fault (Vm.touch vm launched.space ~addr:!pc ~access:`Exec ~bytes:line ())
    in
    total := Time.span_add !total span;
    advance span;
    pc := !pc + line;
    if !pc >= text.Addr_space.base + text_bytes then pc := text.Addr_space.base;
    (* A data access roughly every four instructionfetches. *)
    if i mod 4 = 3 then begin
      let daddr =
        launched.data.Addr_space.base
        + (Rng.int rng (max 1 (launched.data.Addr_space.pages * page_bytes / line))
          * line)
      in
      let access = if Rng.bernoulli rng ~p:0.3 then `Write else `Read in
      let span =
        ok_or_fault (Vm.touch vm launched.space ~addr:daddr ~access ~bytes:line ())
      in
      total := Time.span_add !total span;
      advance span
    end
  done;
  !total
