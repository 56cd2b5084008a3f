module Position = Pvtol_variation.Position
module Srng = Pvtol_util.Srng
module Welford = Pvtol_util.Stream_stats.Welford
module Counter = Pvtol_util.Stream_stats.Counter

type chip = {
  diagonal_frac : float;
  violating : int;
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

let kernel = Compensation.kernel

(* ------------------------------------------------------------------ *)
(* Population study along the chip diagonal                             *)

let run ?(n_chips = 40) ?(seed = 7) ?pool (t : Flow.t) (v : Flow.variant) =
  let k = kernel t v in
  let n = Pvtol_netlist.Netlist.cell_count (Flow.netlist t) in
  (* The study is one serial stream: per chip, one uniform for the die
     position, then the die's [n] Lgate gaussians.  Chip [i] resumes it
     at its start, so every chip is a one-die site of its own. *)
  let starts =
    Array.init n_chips (fun i ->
        let rng = Srng.create_after ~uniforms:i ~gaussians:(i * n) seed in
        (Srng.uniform rng, rng))
  in
  let site (frac, rng) =
    { Wafer.position = Position.at_fraction frac; streams = [| rng |];
      dies_per_stream = 1 }
  in
  let tallies =
    Wafer.tally ?pool k.Compensation.ctx
      [| k.Compensation.vi; k.Compensation.cw |]
      Wafer.site_verdicts (Array.map site starts)
  in
  let chip (frac, _) (ta : Wafer.tally) =
    let vi = ta.Wafer.strategies.(0) and cw = ta.Wafer.strategies.(1) in
    let scenarios = Counter.to_array ta.Wafer.violating in
    let rec violating s = if scenarios.(s) > 0 then s else violating (s + 1) in
    {
      diagonal_frac = frac;
      violating = violating 0;
      raised = vi.Wafer.knob_sum;
      meets_uncompensated = ta.Wafer.n_uncompensated = 1;
      meets_compensated = vi.Wafer.meets = 1;
      meets_chip_wide = cw.Wafer.meets = 1;
    }
  in
  let chips = Array.to_list (Array.map2 chip starts tallies) in
  let per_chip x = x /. float_of_int n_chips in
  let frac_of f = per_chip (float_of_int (List.length (List.filter f chips))) in
  (* Population power, summed in chip order: each one-die tally's mean
     is that die's power exactly. *)
  let power s =
    per_chip
      (Array.fold_left
         (fun acc (ta : Wafer.tally) ->
           acc +. Welford.mean ta.Wafer.strategies.(s).Wafer.power)
         0.0 tallies)
  in
  {
    chips;
    yield_uncompensated = frac_of (fun c -> c.meets_uncompensated);
    yield_compensated = frac_of (fun c -> c.meets_compensated);
    yield_chip_wide = frac_of (fun c -> c.meets_chip_wide);
    mean_raised =
      per_chip
        (float_of_int (List.fold_left (fun acc c -> acc + c.raised) 0 chips));
    mean_power_islands_mw = power 0;
    mean_power_chip_wide_mw = power 1;
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
