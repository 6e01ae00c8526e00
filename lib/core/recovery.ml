type outcome = {
  dirty_blocks : int;
  lost_blocks : int;
  survived_by : [ `Primary_battery | `Backup_battery | `Nothing ];
  flash_blocks_intact : int;
}

let survivor ~battery ~dram_battery_backed =
  if (not dram_battery_backed) || Device.Battery.exhausted battery then `Nothing
  else if Device.Battery.on_backup battery then `Backup_battery
  else `Primary_battery

let power_failure ~manager ~battery ~dram_battery_backed =
  let stats = Storage.Manager.stats manager in
  let dirty = stats.Storage.Manager.dirty_blocks in
  let survived_by = survivor ~battery ~dram_battery_backed in
  {
    dirty_blocks = dirty;
    lost_blocks = (match survived_by with `Nothing -> dirty | _ -> 0);
    survived_by;
    flash_blocks_intact = stats.Storage.Manager.live_blocks;
  }

type holdup = { primary_days : float; backup_hours : float }

let dram_holdup ~dram ~battery =
  let spec = Device.Dram.spec dram in
  let refresh_w =
    Device.Power.watts_of_mw
      (spec.Device.Specs.d_refresh_mw_per_mb
      *. Sim.Units.to_mib (Device.Dram.size_bytes dram))
  in
  let primary_days =
    Device.Battery.primary_joules battery /. refresh_w /. 86_400.0
  in
  let backup_hours = Device.Battery.backup_joules battery /. refresh_w /. 3_600.0 in
  { primary_days; backup_hours }

let pp_holdup ppf h =
  Fmt.pf ppf "%.1f days on primary, %.1f h on backup" h.primary_days
    h.backup_hours

let pp_outcome ppf o =
  Fmt.pf ppf "dirty=%d lost=%d survived_by=%s flash_intact=%d" o.dirty_blocks
    o.lost_blocks
    (match o.survived_by with
    | `Primary_battery -> "primary"
    | `Backup_battery -> "backup"
    | `Nothing -> "nothing")
    o.flash_blocks_intact
