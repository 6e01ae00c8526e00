(* The flash device model as it was before its per-sector state moved to
   int arrays, kept as the reference the property test in
   [test_flash.ml] holds [Device.Flash] to, op for op.  Same shape as
   [write_buffer_oracle.ml]: a deliberately simple implementation, never
   shipped.

   Each sector is a mutable record of its erase count, its bytes
   programmed since the last erase, a bad flag, which the erase that
   reaches the endurance sets, and the header its last program stored
   (block, version, position and a live flag, which [obsolete] clears and
   an erase wipes).  Banks serialize requests, and a request is charged
   its time and energy.  Probes and timeline spans are left out: they
   observe the device and decide nothing. *)

open Sim
module Flash = Device.Flash
module Specs = Device.Specs

type sector_state = {
  mutable erase_count : int;
  mutable programmed : int;
  mutable bad : bool;
  mutable h_block : int;
  mutable h_version : int;
  mutable h_pos : int;
  mutable h_live : bool;
}

let wipe_header s =
  s.h_block <- -1;
  s.h_version <- 0;
  s.h_pos <- -1;
  s.h_live <- false

type t = {
  cfg : Flash.config;
  endurance : int;
  active_w : float;
  idle_w : float;
  sectors : sector_state array;
  bank_busy : Time.t array;
  meter : Device.Power.Meter.t;
  mutable reads : int;
  mutable programs : int;
  mutable erases : int;
  mutable bytes_read : int;
  mutable bytes_programmed : int;
  mutable wait_ns : int;
  mutable read_wait_ns : int;
}

let create (cfg : Flash.config) =
  let n = cfg.nbanks * cfg.sectors_per_bank in
  let mib = Units.to_mib (n * cfg.spec.Specs.f_sector_bytes) in
  {
    cfg;
    endurance = Option.value cfg.endurance_override ~default:cfg.spec.Specs.f_endurance;
    active_w = Device.Power.watts_of_mw (cfg.spec.Specs.f_active_mw_per_mb *. mib);
    idle_w = Device.Power.watts_of_mw (cfg.spec.Specs.f_idle_mw_per_mb *. mib);
    sectors =
      Array.init n (fun _ ->
          {
            erase_count = 0;
            programmed = 0;
            bad = false;
            h_block = -1;
            h_version = 0;
            h_pos = -1;
            h_live = false;
          });
    bank_busy = Array.make cfg.nbanks Time.zero;
    meter = Device.Power.Meter.create ~label:"flash";
    reads = 0;
    programs = 0;
    erases = 0;
    bytes_read = 0;
    bytes_programmed = 0;
    wait_ns = 0;
    read_wait_ns = 0;
  }

let nsectors t = Array.length t.sectors
let sector_bytes t = t.cfg.spec.Specs.f_sector_bytes

let state t sector =
  if sector < 0 || sector >= nsectors t then invalid_arg "Flash: sector out of range";
  t.sectors.(sector)

let check_bytes t bytes =
  if bytes < 0 || bytes > sector_bytes t then invalid_arg "Flash: bytes out of range"

let service t ~now ~sector ~read dur =
  let bank = sector / t.cfg.sectors_per_bank in
  let start = Time.max now t.bank_busy.(bank) in
  let finish = Time.add start dur in
  t.bank_busy.(bank) <- finish;
  let w = Time.span_to_ns (Time.diff start now) in
  t.wait_ns <- t.wait_ns + w;
  if read then t.read_wait_ns <- t.read_wait_ns + w;
  Device.Power.Meter.charge_power t.meter ~watts:t.active_w dur;
  finish

let read t ~now ~sector ~bytes =
  check_bytes t bytes;
  let s = state t sector in
  if s.bad then raise (Flash.Error Flash.Bad_sector);
  let dur = Specs.access_time t.cfg.spec.Specs.f_read ~bytes in
  let finish = service t ~now ~sector ~read:true dur in
  t.reads <- t.reads + 1;
  t.bytes_read <- t.bytes_read + bytes;
  finish

let program t ~now ~sector ~bytes ~block ~version ~pos =
  check_bytes t bytes;
  let s = state t sector in
  if s.bad then raise (Flash.Error Flash.Bad_sector);
  if s.programmed + bytes > sector_bytes t then
    raise (Flash.Error Flash.Overwrite_without_erase);
  let dur = Specs.access_time t.cfg.spec.Specs.f_write ~bytes in
  let finish = service t ~now ~sector ~read:false dur in
  s.programmed <- s.programmed + bytes;
  s.h_block <- block;
  s.h_version <- version;
  s.h_pos <- pos;
  s.h_live <- true;
  t.programs <- t.programs + 1;
  t.bytes_programmed <- t.bytes_programmed + bytes;
  finish

let erase t ~now ~sector =
  let s = state t sector in
  if s.bad then raise (Flash.Error Flash.Bad_sector);
  let finish = service t ~now ~sector ~read:false t.cfg.spec.Specs.f_erase in
  s.erase_count <- s.erase_count + 1;
  s.programmed <- 0;
  wipe_header s;
  if s.erase_count >= t.endurance then s.bad <- true;
  t.erases <- t.erases + 1;
  finish

let obsolete t ~sector = (state t sector).h_live <- false
let erase_count t ~sector = (state t sector).erase_count
let is_bad t ~sector = (state t sector).bad
let programmed_bytes t ~sector = (state t sector).programmed
let header_block t ~sector = (state t sector).h_block
let header_version t ~sector = (state t sector).h_version
let header_pos t ~sector = (state t sector).h_pos
let header_live t ~sector = (state t sector).h_live

let bad_sectors t =
  Array.fold_left (fun acc s -> if s.bad then acc + 1 else acc) 0 t.sectors

let meter t = t.meter
let charge_idle t d = Device.Power.Meter.charge_background t.meter ~watts:t.idle_w d

(* [Flash.reads] .. [Flash.read_wait], in that order. *)
let counters t =
  [
    t.reads;
    t.programs;
    t.erases;
    t.bytes_read;
    t.bytes_programmed;
    t.wait_ns;
    t.read_wait_ns;
  ]

let reset_stats t =
  t.reads <- 0;
  t.programs <- 0;
  t.erases <- 0;
  t.bytes_read <- 0;
  t.bytes_programmed <- 0;
  t.wait_ns <- 0;
  t.read_wait_ns <- 0;
  Device.Power.Meter.reset t.meter

let factory_reset t =
  Array.iter
    (fun s ->
      s.erase_count <- 0;
      s.programmed <- 0;
      s.bad <- false;
      wipe_header s)
    t.sectors;
  Array.fill t.bank_busy 0 (Array.length t.bank_busy) Time.zero;
  reset_stats t
