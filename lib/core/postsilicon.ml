module Position = Pvtol_variation.Position
module Power = Pvtol_power.Power
module Metrics = Pvtol_util.Metrics
module Srng = Pvtol_util.Srng

let m_dies = Metrics.counter "postsilicon_dies_total"
let m_raised = Metrics.counter "postsilicon_islands_raised_total"

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
(* Single-die kernel — the shared detect pass plus the paper's two
   reference strategies (voltage islands, chip-wide adaptation), both
   expressed through the {!Compensation} interface.                     *)

type kernel = {
  ctx : Compensation.ctx;
  vi : Compensation.strategy;
  cw : Compensation.strategy;
  (* Power per compensation level, computed once (chip leakage varies
     with position but the dominant switching term does not).  Reads
     the same memoized power stages as the island strategy's own cost
     table. *)
  power_of_raised : float array;
}

type scratch = {
  sc : Compensation.scratch;
  vi_apply : Compensation.scratch -> Compensation.detect -> Compensation.outcome;
  cw_apply : Compensation.scratch -> Compensation.detect -> Compensation.outcome;
}

type die = {
  die_violating : int;
  die_detected : int;
  die_raised : int;
  die_meets_uncompensated : bool;
  die_meets_compensated : bool;
  die_meets_chip_wide : bool;
  die_worst_low_ns : float;
}

let kernel (t : Flow.t) (v : Flow.variant) =
  let ctx = Compensation.context t in
  let vi = Compensation.voltage_islands t ctx v in
  let cw = Compensation.chip_wide ctx in
  let power_of_raised =
    Array.init
      (vi.Compensation.max_knob + 1)
      (fun raised ->
        Power.total_mw
          (Flow.power_at t ~position:Position.point_b
             (Flow.Islands (v.Flow.direction, raised)))
            .Power.total)
  in
  { ctx; vi; cw; power_of_raised }

let scratch k =
  {
    sc = Compensation.scratch k.ctx;
    vi_apply = k.vi.Compensation.fresh_apply ();
    cw_apply = k.cw.Compensation.fresh_apply ();
  }

let n_islands k = k.vi.Compensation.max_knob
let clock k = Compensation.clock k.ctx
let power_islands_mw k ~raised = k.power_of_raised.(raised)
let power_chip_wide_mw k = Compensation.power_chip_wide_mw k.ctx
let power_baseline_mw k = Compensation.power_baseline_mw k.ctx
let die_power_islands_mw k d = k.power_of_raised.(d.die_raised)

let die_power_chip_wide_mw k d =
  if d.die_meets_uncompensated then Compensation.power_baseline_mw k.ctx
  else Compensation.power_chip_wide_mw k.ctx

let systematic k position = Compensation.systematic k.ctx position
let systematic_into k s position = Compensation.systematic_into k.ctx s.sc position

let simulate_die k s ~systematic rng =
  (* Detect once (the die's only RNG consumption), then play both
     reference strategies on the same Lgate realisation — the exact
     analysis sequence of the pre-refactor loop, so die records are
     bit-identical to it. *)
  let d = Compensation.detect k.ctx s.sc ~systematic rng in
  let vi = s.vi_apply s.sc d in
  let cw = s.cw_apply s.sc d in
  Metrics.incr m_dies;
  Metrics.add m_raised vi.Compensation.knob;
  {
    die_violating = d.Compensation.violating;
    die_detected = d.Compensation.violating;
    die_raised = vi.Compensation.knob;
    die_meets_uncompensated = d.Compensation.violating = 0;
    die_meets_compensated = vi.Compensation.meets;
    die_meets_chip_wide = cw.Compensation.meets;
    die_worst_low_ns = d.Compensation.worst_low_ns;
  }

(* ------------------------------------------------------------------ *)
(* Population study along the chip diagonal (the original exhibit)      *)

let run ?(n_chips = 40) ?(seed = 7) (t : Flow.t) (v : Flow.variant) =
  let k = kernel t v in
  let sc = scratch k in
  let rng = Srng.create seed in
  let chips = ref [] in
  for _ = 1 to n_chips do
    let frac = Srng.uniform rng in
    let position = Position.at_fraction frac in
    let systematic = systematic_into k sc position in
    let d = simulate_die k sc ~systematic rng in
    chips :=
      {
        diagonal_frac = frac;
        violating = d.die_violating;
        detected = d.die_detected;
        raised = d.die_raised;
        meets_uncompensated = d.die_meets_uncompensated;
        meets_compensated = d.die_meets_compensated;
        meets_chip_wide = d.die_meets_chip_wide;
      }
      :: !chips
  done;
  let chips = List.rev !chips in
  let count f = List.length (List.filter f chips) in
  let frac_of n = float_of_int n /. float_of_int n_chips in
  let mean_raised =
    float_of_int (List.fold_left (fun acc c -> acc + c.raised) 0 chips)
    /. float_of_int n_chips
  in
  (* Population power: islands scheme uses each chip's raised level;
     chip-wide adaptation raises everything on any failing die. *)
  let mean_power_islands =
    List.fold_left (fun acc c -> acc +. k.power_of_raised.(c.raised)) 0.0 chips
    /. float_of_int n_chips
  in
  let mean_power_chip_wide =
    List.fold_left
      (fun acc c ->
        acc
        +.
        if c.meets_uncompensated then power_baseline_mw k
        else power_chip_wide_mw k)
      0.0 chips
    /. float_of_int n_chips
  in
  {
    chips;
    yield_uncompensated = frac_of (count (fun c -> c.meets_uncompensated));
    yield_compensated = frac_of (count (fun c -> c.meets_compensated));
    yield_chip_wide = frac_of (count (fun c -> c.meets_chip_wide));
    mean_raised;
    mean_power_islands_mw = mean_power_islands;
    mean_power_chip_wide_mw = mean_power_chip_wide;
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
