(** Per-gate variability injection (paper §4.1 and §4.3).

    For each cell, effective gate length is the sum of the systematic
    field polynomial at the cell's placed location and an i.i.d.
    Gaussian random component (Eq. 2); the Orshansky alpha-power model
    plus the DIBL Vth dependence convert Lgate and the cell's supply
    voltage into a delay scale factor (Eqs. 3-4), which multiplies the
    nominal SDF delays — the exact mechanism of the paper's SDF
    rewriting flow. *)

type t = {
  field : Field.t;
  process : Pvtol_stdcell.Process.t;
  sigma_rnd_nm : float;  (** random component sigma, nm *)
}

val create : ?three_sigma_rnd_frac:float -> unit -> t
(** The default process and {!Field.default}; random 3-sigma of 6.5%
    of nominal Lgate by default. *)

val systematic_lgates :
  t -> Pvtol_place.Placement.t -> Position.t -> float array
(** Per-cell systematic Lgate (nm) at a die position — the
    deterministic part, computed once per position. *)

val systematic_lgates_into :
  t -> Pvtol_place.Placement.t -> Position.t -> out:float array -> unit
(** {!systematic_lgates} written into [out] (one entry per placed cell)
    without allocating — for per-die loops that keep one map buffer. *)

val sample_lgates : t -> systematic:float array -> raw:(float array -> unit) ->
  Pvtol_util.Srng.t -> float array -> unit
(** Fill the output array with systematic + fresh random draws:
    [out.(i) <- systematic.(i) +. sigma_rnd_nm *. gaussian rng] for
    [i = 0 .. n-1] in order, bit for bit, drawn in bulk through
    {!Pvtol_util.Srng.fill_gaussians} (no per-cell allocation); [raw out]
    sees the raw draws first (it must neither keep nor write [out]).
    Raises [Invalid_argument] if [out] is [systematic] or differs in length. *)

val shifted_systematic :
  t ->
  systematic:float array ->
  cells:int array ->
  dir:float array ->
  theta:float ->
  out:float array ->
  unit
(** [out <- systematic] with [sigma_rnd * theta * dir.(k)] added at
    each [cells.(k)] — a mean shift of the random Lgate component
    expressed as a modified systematic field.  Because
    {!sample_lgates} adds the random draw on top of whatever
    systematic it is given, passing the shifted field to an unchanged
    die kernel realises the importance-sampling tilt exactly, without
    touching any sampling loop. *)

(** {2 Fitted scale path}

    Monte Carlo's lanes and a post-silicon die's cells replace the
    three transcendental calls of
    {!Pvtol_stdcell.Process.delay_scale} per cell and supply with one
    fit: a window [[lo, hi]] of Lgate and one degree-12 Chebyshev
    interpolant per supply over it, evaluated by Horner's rule.  One
    routine builds every fit: the window's Chebyshev nodes, then
    {!Pvtol_stdcell.Process.scale_into} on a unit base at each supply,
    then the conversion to monomial coefficients.  A Monte-Carlo job
    fits once over its systematic range widened by ten random sigmas
    ({!batch}); a die refits over its own [[min, max]]
    ({!scale_die}). *)

type batch
(** One Monte-Carlo job's scaling state: base delays, systematic
    Lgates, the per-cell supply and the job's fit.  Immutable after
    {!batch}; safe to share across domains. *)

val batch :
  t ->
  base:float array ->
  systematic:float array ->
  raised:(int -> bool) ->
  batch
(** [batch t ~base ~systematic ~raised] fits both supplies of [t]'s
    process over [[min systematic - 10 sigma, max systematic + 10
    sigma]]; cell [i] runs at [vdd_high] where [raised i] holds, else
    at [vdd_low].  The fit matches the exact model to within [1e-12]
    relative (observed ~[3e-14]); a lane whose Lgate falls outside the
    window is evaluated exactly, so the bound is unconditional.  Cost
    is O(cells + degree^2); amortized over every sample of the run. *)

val scale_delays_batch :
  batch ->
  gauss:float array ->
  samples:int ->
  stride:int ->
  out:float array ->
  unit
(** [scale_delays_batch b ~gauss ~samples ~stride ~out] scales a block
    of [samples] lanes at once.  [gauss] is sample-major — lane [k]'s
    draw for cell [i] at [gauss.(k * cells + i)], matching the order
    {!Pvtol_util.Srng.fill_gaussians} writes — and [out] is cell-major:
    lane [k]'s scaled delay for cell [i] lands at
    [out.(i * stride + k)], one contiguous row of [stride] floats per
    cell, ready for the SoA STA kernel.  Lanes [samples .. stride-1]
    are left untouched.

    Lanes run in blocks of four independent Horner chains, each with
    the 1-lane op sequence, so every lane is bit-identical to a
    [~samples:1 ~stride:1] call on its own gaussian column.  A block
    with any lane outside the fit window, and the last
    [samples mod 4] lanes, are evaluated lane by lane. *)

(** {2 Per-die fit}

    A post-silicon die ({!Pvtol_core.Compensation.draw}) is one Lgate
    vector scaled at both supplies.  Every cell lies inside its die's
    window, so no fallback is needed: the fit matches the exact kernel
    to within [1e-12] relative at both supplies (observed a few
    [1e-15] on the full design). *)

type die_fit
(** The mutable scratch of one caller's per-die fit of a sampler's
    process: the fit routine's work arrays and one fit, refitted per
    die.  Not shareable across domains. *)

val die_fit : t -> die_fit
(** A fresh scratch for [t]'s dies. *)

val scale_die :
  die_fit ->
  exact_low:bool ->
  base:float array ->
  lgates:float array ->
  low:float array ->
  high:float array ->
  unit
(** [scale_die f ~exact_low ~base ~lgates ~low ~high]: one die's
    delays at [vdd_low] into [low] and at [vdd_high] into [high], the
    high supply through the per-die fit.  With [exact_low] the low
    supply is {!Pvtol_stdcell.Process.scale_into}, bit for bit: a
    caller that reports a die's delay {e value} (the census's delay
    moments) keeps it exact, one that reads only verdicts fits both
    supplies, two interleaved Horner chains per cell.  A die whose
    window is empty or flat up to rounding ([hi - lo <= 1e-9 |hi|]:
    one cell, or every Lgate equal) is scaled exactly at both
    supplies.  Allocates nothing.
    [Invalid_argument] if the arrays differ in length or [low], [high]
    and [lgates] are not distinct. *)
