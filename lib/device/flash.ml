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

type sector_state = {
  mutable erase_count : int;
  mutable programmed : int;  (** Bytes programmed since the last erase. *)
  mutable bad : bool;
}

type t = {
  cfg : config;
  endurance : int;
  active_w : float; (* constant for a fixed geometry; hoisted out of [service] *)
  idle_w : float;
  sectors : sector_state array;
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
    sectors = Array.init n (fun _ -> { erase_count = 0; programmed = 0; bad = false });
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
let sectors_per_bank t = t.cfg.sectors_per_bank
let nsectors t = Array.length t.sectors
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

let state t sector =
  if sector < 0 || sector >= nsectors t then invalid_arg "Flash: sector out of range";
  t.sectors.(sector)

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
  let s = state t sector in
  if s.bad then raise (Error Bad_sector);
  let dur = Specs.access_time t.cfg.spec.Specs.f_read ~bytes in
  let finish = service t ~now ~sector ~op:`Read dur in
  Stat.Counter.incr t.c_reads;
  Stat.Counter.add t.c_bytes_read bytes;
  Probe.incr p_reads;
  Probe.add p_bytes_read bytes;
  finish

let program t ~now ~sector ~bytes =
  check_bytes t bytes;
  let s = state t sector in
  if s.bad then raise (Error Bad_sector);
  if s.programmed + bytes > sector_bytes t then raise (Error Overwrite_without_erase);
  let dur = Specs.access_time t.cfg.spec.Specs.f_write ~bytes in
  let finish = service t ~now ~sector ~op:`Program dur in
  s.programmed <- s.programmed + bytes;
  Stat.Counter.incr t.c_programs;
  Stat.Counter.add t.c_bytes_programmed bytes;
  Probe.incr p_programs;
  Probe.add p_bytes_programmed bytes;
  finish

let erase t ~now ~sector =
  let s = state t sector in
  if s.bad then raise (Error Bad_sector);
  let finish = service t ~now ~sector ~op:`Erase t.cfg.spec.Specs.f_erase in
  s.erase_count <- s.erase_count + 1;
  s.programmed <- 0;
  if s.erase_count >= t.endurance then s.bad <- true;
  Stat.Counter.incr t.c_erases;
  Probe.incr p_erases;
  finish

let bank_busy_until t ~bank =
  if bank < 0 || bank >= nbanks t then invalid_arg "Flash.bank_busy_until";
  t.bank_busy.(bank)

let erase_count t ~sector = (state t sector).erase_count
let is_bad t ~sector = (state t sector).bad
let programmed_bytes t ~sector = (state t sector).programmed

let bad_sectors t =
  Array.fold_left (fun acc s -> if s.bad then acc + 1 else acc) 0 t.sectors

let live_capacity_bytes t = (nsectors t - bad_sectors t) * sector_bytes t

let wear_summary t =
  let summary = Stat.Summary.create () in
  Array.iter (fun s -> Stat.Summary.observe summary (float_of_int s.erase_count)) t.sectors;
  summary

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
  (* Back to the state [create] built: pristine sectors, idle banks, zero
     meters — the blank card a parity array rebuilds onto. *)
  Array.iter
    (fun s ->
      s.erase_count <- 0;
      s.programmed <- 0;
      s.bad <- false)
    t.sectors;
  Array.fill t.bank_busy 0 (Array.length t.bank_busy) Time.zero;
  reset_stats t
