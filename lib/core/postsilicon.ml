module Position = Pvtol_variation.Position
module Srng = Pvtol_util.Srng

type chip = {
  diagonal_frac : float;
  violating : int;
  detected : int;
  raised : int;
  meets_uncompensated : bool;
  meets_compensated : bool;
  meets_chip_wide : bool;
}

type study = {
  chips : chip list;
  yield_uncompensated : float;
  yield_compensated : float;
  yield_chip_wide : float;
  mean_raised : float;
  mean_power_islands_mw : float;
  mean_power_chip_wide_mw : float;
}

(* ------------------------------------------------------------------ *)
(* The paper's two reference strategies on one detect context          *)

type kernel = {
  ctx : Compensation.ctx;
  vi : Compensation.strategy;
  cw : Compensation.strategy;
}

let kernel (t : Flow.t) (v : Flow.variant) =
  let ctx = Compensation.context t in
  {
    ctx;
    vi = Compensation.voltage_islands t ctx v;
    cw = Compensation.chip_wide ctx;
  }

(* ------------------------------------------------------------------ *)
(* Population study along the chip diagonal (the original exhibit)      *)

let run ?(n_chips = 40) ?(seed = 7) (t : Flow.t) (v : Flow.variant) =
  let k = kernel t v in
  let sc = Compensation.scratch k.ctx in
  let vi = k.vi.Compensation.fresh_apply () in
  let cw = k.cw.Compensation.fresh_apply () in
  let rng = Srng.create seed in
  let chips = ref [] in
  (* Population power, summed in chip order: the islands scheme at each
     chip's raised level, chip-wide adaptation raising everything on
     any failing die. *)
  let power_islands = ref 0.0 and power_chip_wide = ref 0.0 in
  for _ = 1 to n_chips do
    let frac = Srng.uniform rng in
    let systematic =
      Compensation.systematic_into k.ctx sc (Position.at_fraction frac)
    in
    let d = Compensation.detect k.ctx sc ~systematic rng in
    let ovi = vi sc d in
    let ocw = cw sc d in
    power_islands := !power_islands +. ovi.Compensation.power_mw;
    power_chip_wide := !power_chip_wide +. ocw.Compensation.power_mw;
    chips :=
      {
        diagonal_frac = frac;
        violating = d.Compensation.violating;
        detected = d.Compensation.violating;
        raised = ovi.Compensation.knob;
        meets_uncompensated = d.Compensation.violating = 0;
        meets_compensated = ovi.Compensation.meets;
        meets_chip_wide = ocw.Compensation.meets;
      }
      :: !chips
  done;
  let chips = List.rev !chips in
  let per_chip x = x /. float_of_int n_chips in
  let frac_of f = per_chip (float_of_int (List.length (List.filter f chips))) in
  {
    chips;
    yield_uncompensated = frac_of (fun c -> c.meets_uncompensated);
    yield_compensated = frac_of (fun c -> c.meets_compensated);
    yield_chip_wide = frac_of (fun c -> c.meets_chip_wide);
    mean_raised =
      per_chip
        (float_of_int (List.fold_left (fun acc c -> acc + c.raised) 0 chips));
    mean_power_islands_mw = per_chip !power_islands;
    mean_power_chip_wide_mw = per_chip !power_chip_wide;
  }

let pp fmt s =
  Format.fprintf fmt
    "population of %d dies:@.\
    \  timing yield:  uncompensated %.0f%%   islands %.0f%%   chip-wide %.0f%%@.\
    \  mean islands raised per die: %.2f of 3@.\
    \  mean power: islands %.2f mW vs chip-wide adaptation %.2f mW (%.1f%% saved)@."
    (List.length s.chips)
    (100.0 *. s.yield_uncompensated)
    (100.0 *. s.yield_compensated)
    (100.0 *. s.yield_chip_wide)
    s.mean_raised s.mean_power_islands_mw s.mean_power_chip_wide_mw
    (100.0 *. (1.0 -. (s.mean_power_islands_mw /. s.mean_power_chip_wide_mw)))
