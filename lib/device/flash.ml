open Sim

type config = {
  spec : Specs.flash_spec;
  nbanks : int;
  sectors_per_bank : int;
  endurance_override : int option;
}

let config ?(spec = Specs.intel_flash) ?(nbanks = 1) ?endurance_override ~size_bytes () =
  if size_bytes <= 0 then invalid_arg "Flash.config: size_bytes <= 0";
  if nbanks <= 0 then invalid_arg "Flash.config: nbanks <= 0";
  let sectors = Units.ceil_div size_bytes spec.Specs.f_sector_bytes in
  let sectors_per_bank = Units.ceil_div sectors nbanks in
  { spec; nbanks; sectors_per_bank; endurance_override }

type t = {
  cfg : config;
  endurance : int;
  active_w : float; (* constant for a fixed geometry; hoisted out of [service] *)
  idle_w : float;
  (* Per-sector state, indexed by sector: erases so far, and bytes
     programmed since the last erase.  A sector is bad exactly when its
     erase count reaches [endurance]. *)
  erase_counts : int array;
  programmed : int array;
  (* The header the last program wrote, stored verbatim: its block (-1
     once erased), its version shifted left one bit over the live bit
     that [obsolete] clears, and its position (-1 once erased), in an
     array allocated at the first other position: a flash that never
     holds a delta record pays no word per sector for it. *)
  hdr_block : int array;
  hdr_version : int array;
  mutable hdr_pos : int array;
  bank_busy : Time.t array;
  meter : Power.Meter.t;
  c_reads : Stat.Counter.t;
  c_programs : Stat.Counter.t;
  c_erases : Stat.Counter.t;
  c_bytes_read : Stat.Counter.t;
  c_bytes_programmed : Stat.Counter.t;
  mutable wait_ns : int;
  mutable read_wait_ns : int;
}

let create cfg =
  if cfg.nbanks <= 0 || cfg.sectors_per_bank <= 0 then
    invalid_arg "Flash.create: empty geometry";
  let n = cfg.nbanks * cfg.sectors_per_bank in
  let bytes = n * cfg.spec.Specs.f_sector_bytes in
  {
    cfg;
    active_w =
      Power.watts_of_mw (cfg.spec.Specs.f_active_mw_per_mb *. Units.to_mib bytes);
    idle_w = Power.watts_of_mw (cfg.spec.Specs.f_idle_mw_per_mb *. Units.to_mib bytes);
    endurance =
      (match cfg.endurance_override with
      | Some e ->
        if e <= 0 then invalid_arg "Flash.create: endurance <= 0";
        e
      | None -> cfg.spec.Specs.f_endurance);
    erase_counts = Array.make n 0;
    programmed = Array.make n 0;
    hdr_block = Array.make n (-1);
    hdr_version = Array.make n 0;
    hdr_pos = [||];
    bank_busy = Array.make cfg.nbanks Time.zero;
    meter = Power.Meter.create ~label:"flash";
    c_reads = Stat.Counter.create ();
    c_programs = Stat.Counter.create ();
    c_erases = Stat.Counter.create ();
    c_bytes_read = Stat.Counter.create ();
    c_bytes_programmed = Stat.Counter.create ();
    wait_ns = 0;
    read_wait_ns = 0;
  }

let nbanks t = t.cfg.nbanks
let spec t = t.cfg.spec
let sectors_per_bank t = t.cfg.sectors_per_bank
let nsectors t = Array.length t.erase_counts
let sector_bytes t = t.cfg.spec.Specs.f_sector_bytes
let size_bytes t = nsectors t * sector_bytes t
let endurance t = t.endurance

let bank_of_sector t sector =
  if sector < 0 || sector >= nsectors t then invalid_arg "Flash.bank_of_sector";
  sector / t.cfg.sectors_per_bank

type error = Bad_sector | Overwrite_without_erase

exception Error of error

let pp_error ppf = function
  | Bad_sector -> Fmt.string ppf "bad sector (worn out)"
  | Overwrite_without_erase -> Fmt.string ppf "overwrite without erase"

let check_sector t sector =
  if sector < 0 || sector >= nsectors t then invalid_arg "Flash: sector out of range"

let bad t sector = t.erase_counts.(sector) >= t.endurance

let op_name = function
  | `Read -> "flash.read"
  | `Program -> "flash.program"
  | `Erase -> "flash.erase"

(* Serialize the request behind its bank, account time and energy, and
   return the completion instant. *)
let service t ~now ~sector ~op dur =
  let bank = bank_of_sector t sector in
  let start = Time.max now t.bank_busy.(bank) in
  let finish = Time.add start dur in
  t.bank_busy.(bank) <- finish;
  let w = Time.span_to_ns (Time.diff start now) in
  t.wait_ns <- t.wait_ns + w;
  (match op with
  | `Read -> t.read_wait_ns <- t.read_wait_ns + w
  | `Program | `Erase -> ());
  if Probe.timeline_enabled () then
    Probe.span ~name:(op_name op) ~cat:"flash" ~tid:bank
      ~args:[ ("sector", string_of_int sector) ]
      ~start ~finish ();
  Power.Meter.charge_power t.meter ~watts:t.active_w dur;
  finish

let check_bytes t bytes =
  if bytes < 0 || bytes > sector_bytes t then invalid_arg "Flash: bytes out of range"

let p_reads = Probe.counter "device.flash.reads"
let p_programs = Probe.counter "device.flash.programs"
let p_erases = Probe.counter "device.flash.erases"
let p_bytes_read = Probe.counter "device.flash.bytes_read"
let p_bytes_programmed = Probe.counter "device.flash.bytes_programmed"

let read t ~now ~sector ~bytes =
  check_bytes t bytes;
  check_sector t sector;
  if bad t sector then raise (Error Bad_sector);
  let dur = Specs.access_time t.cfg.spec.Specs.f_read ~bytes in
  let finish = service t ~now ~sector ~op:`Read dur in
  Stat.Counter.incr t.c_reads;
  Stat.Counter.add t.c_bytes_read bytes;
  Probe.incr p_reads;
  Probe.add p_bytes_read bytes;
  finish

let set_pos t sector pos =
  if pos <> -1 && Array.length t.hdr_pos = 0 then t.hdr_pos <- Array.make (nsectors t) (-1);
  if Array.length t.hdr_pos > 0 then t.hdr_pos.(sector) <- pos

let program t ~now ~sector ~bytes ~block ~version ~pos =
  check_bytes t bytes;
  check_sector t sector;
  if bad t sector then raise (Error Bad_sector);
  if t.programmed.(sector) + bytes > sector_bytes t then
    raise (Error Overwrite_without_erase);
  let dur = Specs.access_time t.cfg.spec.Specs.f_write ~bytes in
  let finish = service t ~now ~sector ~op:`Program dur in
  t.programmed.(sector) <- t.programmed.(sector) + bytes;
  t.hdr_block.(sector) <- block;
  t.hdr_version.(sector) <- (version lsl 1) lor 1;
  set_pos t sector pos;
  Stat.Counter.incr t.c_programs;
  Stat.Counter.add t.c_bytes_programmed bytes;
  Probe.incr p_programs;
  Probe.add p_bytes_programmed bytes;
  finish

let erase t ~now ~sector =
  check_sector t sector;
  if bad t sector then raise (Error Bad_sector);
  let finish = service t ~now ~sector ~op:`Erase t.cfg.spec.Specs.f_erase in
  t.erase_counts.(sector) <- t.erase_counts.(sector) + 1;
  t.programmed.(sector) <- 0;
  t.hdr_block.(sector) <- -1;
  t.hdr_version.(sector) <- 0;
  set_pos t sector (-1);
  Stat.Counter.incr t.c_erases;
  Probe.incr p_erases;
  finish

(* A bit-clear in place: no bank time, no energy. *)
let obsolete t ~sector =
  check_sector t sector;
  t.hdr_version.(sector) <- t.hdr_version.(sector) land lnot 1

let header_block t ~sector = check_sector t sector; t.hdr_block.(sector)
let header_version t ~sector = check_sector t sector; t.hdr_version.(sector) asr 1
let header_live t ~sector = check_sector t sector; t.hdr_version.(sector) land 1 = 1

let header_pos t ~sector =
  check_sector t sector;
  if Array.length t.hdr_pos = 0 then -1 else t.hdr_pos.(sector)

let bank_busy_until t ~bank =
  if bank < 0 || bank >= nbanks t then invalid_arg "Flash.bank_busy_until";
  t.bank_busy.(bank)

let erase_count t ~sector =
  check_sector t sector;
  t.erase_counts.(sector)

let is_bad t ~sector =
  check_sector t sector;
  bad t sector

let rec bad_from t sector stop = sector < stop && (bad t sector || bad_from t (sector + 1) stop)

let any_bad t ~sector ~count =
  check_sector t sector;
  check_sector t (sector + count - 1);
  bad_from t sector (sector + count)

let programmed_bytes t ~sector =
  check_sector t sector;
  t.programmed.(sector)

let bad_sectors t =
  Array.fold_left (fun acc e -> if e >= t.endurance then acc + 1 else acc) 0 t.erase_counts

let live_capacity_bytes t = (nsectors t - bad_sectors t) * sector_bytes t

let meter t = t.meter

let charge_idle t d = Power.Meter.charge_background t.meter ~watts:t.idle_w d
let reads t = Stat.Counter.value t.c_reads
let programs t = Stat.Counter.value t.c_programs
let erases t = Stat.Counter.value t.c_erases
let bytes_read t = Stat.Counter.value t.c_bytes_read
let bytes_programmed t = Stat.Counter.value t.c_bytes_programmed
let total_wait t = Time.span_ns t.wait_ns
let read_wait t = Time.span_ns t.read_wait_ns

let reset_stats t =
  Stat.Counter.reset t.c_reads;
  Stat.Counter.reset t.c_programs;
  Stat.Counter.reset t.c_erases;
  Stat.Counter.reset t.c_bytes_read;
  Stat.Counter.reset t.c_bytes_programmed;
  t.wait_ns <- 0;
  t.read_wait_ns <- 0;
  Power.Meter.reset t.meter

let factory_reset t =
  (* Back to the state [create] built: pristine sectors, no headers, idle
     banks, zero meters — the blank card a parity array rebuilds onto. *)
  Array.fill t.erase_counts 0 (nsectors t) 0;
  Array.fill t.programmed 0 (nsectors t) 0;
  Array.fill t.hdr_block 0 (nsectors t) (-1);
  Array.fill t.hdr_version 0 (nsectors t) 0;
  Array.fill t.hdr_pos 0 (Array.length t.hdr_pos) (-1);
  Array.fill t.bank_busy 0 (Array.length t.bank_busy) Time.zero;
  reset_stats t
