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

val delay_scale :
  t -> lgate_nm:float -> vdd:float -> float
(** Delay multiplier relative to the nominal corner. *)

(** {2 Batched structure-of-arrays path}

    The Monte-Carlo run replaces the per-(cell, sample)
    transcendental delay-scale evaluation with a per-supply Chebyshev
    interpolant over the reachable Lgate window.  The interpolant
    matches {!delay_scale} to within [1e-12] relative (observed
    ~[3e-14]); lanes whose Lgate falls outside the fitted window —
    beyond a 10-sigma random excursion — are evaluated exactly, so the
    bound is unconditional. *)

type batch
(** Precomputed per-die scaling state: base delays, systematic Lgates,
    per-cell supply, and one fitted polynomial per distinct supply
    value.  Immutable after {!batch}; safe to share across domains. *)

val batch :
  t ->
  base:float array ->
  systematic:float array ->
  vdd:(int -> float) ->
  batch
(** [batch t ~base ~systematic ~vdd] fits the fast delay-scale
    polynomials for one die position.  Cost is O(cells + degree^2 per
    distinct supply); amortized over every sample of the run. *)

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
