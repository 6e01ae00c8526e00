open Sim

let watts_of_mw mw = mw /. 1000.0

module Meter = struct
  (* All-float, so both sums are stored flat and updated in place: a
     charge allocates nothing. *)
  type sums = { mutable active : float; mutable background : float }
  type t = { label : string; j : sums }

  let create ~label = { label; j = { active = 0.0; background = 0.0 } }
  let label t = t.label

  let charge t ~joules =
    if joules < 0.0 then invalid_arg "Power.Meter.charge: negative";
    t.j.active <- t.j.active +. joules

  (* Energy is [watts *. Time.span_to_s d], written out in the two charges
     below: a float returned from a call, or passed to one, is boxed. *)
  let charge_power t ~watts d =
    let joules = watts *. (float_of_int (Time.span_to_ns d) /. 1e9) in
    if joules < 0.0 then invalid_arg "Power.Meter.charge: negative";
    t.j.active <- t.j.active +. joules

  let charge_background t ~watts d =
    let j = watts *. (float_of_int (Time.span_to_ns d) /. 1e9) in
    if j < 0.0 then invalid_arg "Power.Meter.charge_background: negative";
    t.j.background <- t.j.background +. j

  let active_joules t = t.j.active
  let background_joules t = t.j.background
  let total_joules t = t.j.active +. t.j.background

  let reset t =
    t.j.active <- 0.0;
    t.j.background <- 0.0
end
