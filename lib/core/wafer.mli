(** Wafer-scale yield engine: 2D die-population sweeps.

    The diagonal {!Postsilicon.run} study samples dies on the A-D line
    only, but the systematic Lgate map of §4.2 is a full 2D polynomial
    over the exposure field — population yield is a wafer-level
    quantity.  This module sweeps a configurable [nx x ny] grid of die
    positions over the chip (optionally replicated across several
    exposure fields of a wafer), runs {!Compensation.detect} and a list
    of compensation strategies on a batch of dies at every grid point,
    and reduces each cell with streaming statistics
    ({!Pvtol_util.Stream_stats}: Welford moments, P-square quantiles,
    scenario counters) — a 10k-die sweep retains no per-die data.

    Determinism: each grid cell's RNG stream is derived from
    [(seed, field, ix, iy)] only, cells are reduced in row-major order,
    and the pool stores chunk results by index — so a sweep is
    bit-identical for every domain count and traversal schedule.  The
    census, {!Compare.run}, {!Postsilicon.run} and the sampling estimator
    all run their dies through the one {!tally} loop. *)

type config = {
  nx : int;               (** grid columns over the chip's x extent *)
  ny : int;               (** grid rows over the chip's y extent *)
  dies_per_cell : int;    (** dies simulated per grid cell per field *)
  fields : int;           (** exposure-field replicas (same systematic
                              map, independent random draws) *)
  seed : int;
}

val default_config : config
(** 8x8 grid, 12 dies per cell, one field, seed 7. *)

type cell = {
  ix : int;
  iy : int;
  x_frac : float;         (** die origin, fraction of the chip edge *)
  y_frac : float;
  dies : int;
  yield_uncompensated : float;
  yield_compensated : float;
  yield_chip_wide : float;
  mean_raised : float;
  scenario_counts : int array;   (** dies per detected scenario, 0..n *)
  raised_counts : int array;     (** dies per final raised level *)
  mean_power_islands_mw : float;
  mean_power_chip_wide_mw : float;
  delay : Pvtol_util.Stats.summary;  (** worst low-Vdd stage delay, ns *)
  delay_p50_ns : float;   (** P-square median estimate *)
  delay_p90_ns : float;   (** P-square 90th-percentile estimate *)
}

type sweep = {
  config : config;
  direction : Island.direction;  (** the deployed variant's slicing *)
  n_islands : int;
  clock_ns : float;
  cells : cell array;     (** row-major: [cells.(iy * nx + ix)] *)
  dies : int;             (** total dies simulated *)
  yield_uncompensated : float;
  yield_compensated : float;
  yield_chip_wide : float;
  mean_raised : float;
  scenario_counts : int array;
  mean_power_islands_mw : float;
  mean_power_chip_wide_mw : float;
  delay : Pvtol_util.Stats.summary;
}

val grid_frac : int -> int -> float
(** [grid_frac n i]: chip-edge fraction of grid index [i] of [n] — the
    endpoints-inclusive mapping [i / (n-1)] (0.5 for a 1-wide grid), so
    cell (0,0) sits exactly at the paper's corner position A. *)

val cell_position : config -> ix:int -> iy:int -> Pvtol_variation.Position.t
(** Die position of a grid cell ({!Pvtol_variation.Position.at_xy}). *)

val cell_seed : config -> field:int -> ix:int -> iy:int -> int
(** The RNG seed of one cell's die stream.  Exposed so tests can
    recompute any cell independently of the sweep. *)

(** {2 The die sweep} *)

type site = {
  position : Pvtol_variation.Position.t;
  streams : Pvtol_util.Srng.t array;  (** consumed: sweep a site once *)
  dies_per_stream : int;
}

val grid_sites : who:string -> config -> site array
(** The grid's sites, row-major: each at its {!cell_position}, one
    {!cell_seed} stream per field, [dies_per_cell] dies per stream.
    [Invalid_argument] (prefixed by [who]) if the grid is empty. *)

type strategy_tally = {
  mutable meets : int;         (** dies meeting timing under the strategy *)
  mutable knob_sum : int;      (** knob count summed over the dies *)
  power : Pvtol_util.Stream_stats.Welford.t;  (** die power, mW *)
  knob : Pvtol_util.Stream_stats.Welford.t;   (** knob count *)
  area : Pvtol_util.Stream_stats.Welford.t;   (** exercised area, um2 *)
  knobs : Pvtol_util.Stream_stats.Counter.t;
      (** dies per knob count, [0..max_knob] *)
}

type tally = {
  mutable n_dies : int;
  mutable n_uncompensated : int;  (** dies with no violating stage *)
  delay_ns : Pvtol_util.Stream_stats.Welford.t;
      (** worst low-supply stage delay ({!Compensation.detect}) *)
  delay_p50 : Pvtol_util.Stream_stats.P2.t;
  delay_p90 : Pvtol_util.Stream_stats.P2.t;
  violating : Pvtol_util.Stream_stats.Counter.t;
      (** dies per violating-stage count, [0..List.length
          Pvtol_ssta.Scenario.analyzed_stages] *)
  strategies : strategy_tally array;  (** in request order *)
}

type on_cell = completed:int -> total:int -> unit

type 'acc source
(** A die source: where a site's dies sit, what each weighs and how the
    site accumulates them into an ['acc].  {!tally} makes one per
    worker, like a strategy's [fresh_apply].  The sampling estimator's
    draws each die's position jitter and IS component, and weighs the
    die's raw gaussians; {!site_tally} and {!site_verdicts} are the
    trivial ones.  A batch asks a source for every die's map before it
    records the first, so a source keeps per-die state per lane (the
    estimator's weight).  What a source records also sets how its dies
    scale ({!Compensation.draw}'s [exact_low]): a source that records
    a die's [worst_low_ns] value gets the exact low supply, one that
    records only verdicts and outcomes the per-die fit at both. *)

val site_tally : Compensation.ctx -> Compensation.strategy array -> tally source
(** The census's source: every die at its site's map, counted in a
    {!tally}, delay moments included, so its dies keep an exact low
    supply. *)

val site_verdicts :
  Compensation.ctx -> Compensation.strategy array -> tally source
(** {!site_tally} without the delay moments ([delay_ns], [delay_p50]
    and [delay_p90] stay empty): verdicts and outcomes only, so its
    dies scale both supplies through the fit.  {!Compare.run} and
    {!Postsilicon.run} count their dies with it. *)

val tally :
  ?pool:Pvtol_util.Pool.t -> ?on_cell:on_cell ->
  Compensation.ctx -> Compensation.strategy array ->
  (Compensation.ctx -> Compensation.strategy array -> 'acc source) ->
  site array ->
  'acc array
(** [tally ctx strategies source sites]: the library's one site x
    stream x die loop.  The census {!run} sweeps the grid's sites with
    {!site_tally} and {!Compare.run} with {!site_verdicts},
    {!Postsilicon.run} one site per
    diagonal chip, and each round of the sampling estimator one site per
    stratum with its own source.  Per site: the source's fresh
    accumulator, then [dies_per_stream] dies from each stream in order.
    Dies run in batches of up to {!Compensation.batch_lanes}, in
    (site, stream, die) order: per die the source's map (it may draw
    from the stream first) and {!Compensation.draw} into the die's
    lane (the source sees its raw gaussians), then one {!Compensation.detect_lanes} for the batch, then per
    die {!Compensation.select}, each strategy's apply in array order
    and the source recording the outcomes.  Every die, draw and
    accumulator sees exactly what a per-die loop of
    {!Compensation.detect} would show it.  One pool chunk per run of
    consecutive sites holding at least a batch of dies, so a batch may
    straddle sites and streams; per worker one detect scratch (leased
    through {!Compensation.with_scratches}, so a later sweep on the
    same flow reuses it), one apply state per strategy and one source.
    The accumulators come back in site order, bit-identical for every
    pool size.  [on_cell] fires once per site when its chunk finishes,
    from whichever domain ran it, with a monotone count; exceptions it
    raises are swallowed. *)

val tally_total : Compensation.strategy array -> tally array -> tally
(** The in-order reduction of {!tally}'s sites: counts added, Welford
    moments and counters merged in site order, so totals are
    bit-identical for every schedule.  P-square markers do not merge;
    the total's [delay_p50] and [delay_p90] are empty. *)

val run :
  ?pool:Pvtol_util.Pool.t -> ?on_cell:on_cell -> Flow.t -> Flow.variant ->
  config -> sweep
(** The census: {!tally} over {!grid_sites} with {!Compensation.kernel}'s
    [[| vi; cw |]] on [pool] (default: the shared pool), projected into
    per-cell and wafer statistics.  Raises like {!grid_sites}. *)

(** {2 Variance-reduced sampling estimator}

    {!run} is a census: a fixed die budget at fixed grid positions.
    The estimator below instead samples die positions over the exposure
    field — the estimand is the {e continuous} wafer mean — with a
    choice of {!Pvtol_ssta.Smart_sampling.method_}:

    - [Mc]: i.i.d. uniform positions, unit weights (the baseline);
    - [Lhs]: stratified positions with Latin-hypercube sub-jitter, so
      position-driven variance is removed stratum by stratum;
    - [Is]: stratified positions plus a per-stratum importance-sampling
      mixture tilted toward the rare-scenario boundary, with exact
      balance-heuristic reweighting — the tail-event workhorse.

    Rounds are drawn until the designated metric's confidence interval
    half-width reaches the target (or the round budget runs out).  A
    zero half-width never satisfies the rule: for indicator metrics an
    all-constant sample is evidence of starvation, not certainty.
    Every stratum round is an independent RNG substream keyed by
    [(seed, round, stratum)] and rounds are merged in stratum order,
    so a report is bit-identical across [PVTOL_DOMAINS]. *)

type ci_metric =
  | Ci_yield  (** uncompensated timing yield *)
  | Ci_rare   (** P(>= [s_rare] islands violating before compensation) *)

val ci_metric_name : ci_metric -> string

type sampling_config = {
  s_method : Pvtol_ssta.Smart_sampling.method_;
  s_strata : int;          (** strata per axis; [s_strata^2] groups *)
  s_dies_per_round : int;  (** dies per stratum per round *)
  s_max_rounds : int;      (** stopping-rule safety budget *)
  s_ci_target : float;     (** stop when the CI half-width reaches this *)
  s_ci_metric : ci_metric; (** which metric the stopping rule watches *)
  s_rare : int;            (** rare scenario: >= this many islands *)
  s_seed : int;
  s_direction : Island.direction;
}

val confidence : float
(** Two-sided confidence of every sampling CI and stopping rule: 0.95. *)

val default_sampling_config : sampling_config
(** mc, 4x4 strata, 16 dies/round, 64 rounds max, +-0.1% yield CI at
    95%, rare scenario 2, seed 7, vertical slicing. *)

type interval = {
  mid : float;  (** point estimate *)
  hw : float;   (** CI half-width; [infinity] until every stratum has
                    at least two dies *)
}

type sampling_group = {
  sg_ix : int;
  sg_iy : int;
  sg_dies : int;
  sg_components : int;     (** IS mixture components at this stratum *)
  sg_yield_uncompensated : float;
  sg_rare : float;
  sg_mean_weight : float;  (** ~1 when the reweighting is honest *)
  sg_effective_samples : float;
}

type sampling_report = {
  sr_config : sampling_config;
  sr_position : Pvtol_variation.Position.t option;
      (** [Some p] for a fixed-site {!estimate_at} run *)
  sr_clock_ns : float;
  sr_rounds : int;
  sr_converged : bool;     (** the stopping rule fired (vs budget) *)
  sr_dies : int;
  sr_estimate : float;     (** the designated metric's estimate *)
  sr_ci_halfwidth : float;
  sr_effective_samples : float;  (** Kish size, summed over strata *)
  sr_yield_uncompensated : interval;
  sr_yield_compensated : interval;
  sr_yield_chip_wide : interval;
  sr_rare : interval;
  sr_groups : sampling_group array;
}

type on_round = round:int -> max_rounds:int -> ci_halfwidth:float -> unit

val ci_reached : target:float -> float -> bool
(** The stopping rule: [ci_reached ~target hw] iff [0 < hw <= target].
    A zero half-width is starvation, not convergence. *)

val estimate :
  ?pool:Pvtol_util.Pool.t ->
  ?on_round:on_round ->
  Flow.t ->
  sampling_config ->
  sampling_report
(** Wafer-mean estimate on [pool] (default: the shared pool).
    [on_round] fires after every round with the current half-width.
    The report is bit-identical for every pool size. *)

val estimate_at :
  ?pool:Pvtol_util.Pool.t ->
  Flow.t ->
  position:Pvtol_variation.Position.t ->
  sampling_config ->
  sampling_report
(** Single-site estimate: every die sits at [position] (no position
    jitter — only the Lgate randomness varies).  The stratum grid
    degenerates into independent parallel substreams of the same
    position, so long brute-force runs still use the pool's full
    width.  This is the differential oracle's entry point. *)

val pp_sampling : Format.formatter -> sampling_report -> unit
(** The report for stdout.  An infinite half-width prints as
    [undefined], where {!sampling_to_json} writes [null].  Point
    estimates are clipped to [0, 1], and an interval that reaches past
    0 or 1 prints as its clipped bounds ([m% in [lo%, hi%]]). *)

val sampling_to_json : sampling_report -> string
(** The report as a JSON document; the top level carries
    [effective_samples] and [ci_halfwidth] alongside the per-metric
    intervals and per-stratum groups.  Probability estimates are
    clipped to [0, 1]; half-widths are written as computed. *)

(** {2 Rendering} *)

type metric =
  | Yield_uncompensated
  | Yield_compensated
  | Mean_raised

val render_map : sweep -> metric -> string
(** ASCII heat map of a per-cell metric over the grid (lower-left =
    the slow corner A). *)

val pp : Format.formatter -> sweep -> unit
(** Wafer-level summary: yields, mean raised, power, delay spread and
    the scenario histogram. *)

val config_fields :
  config -> direction:Island.direction -> (string * Pvtol_util.Json.t) list
(** The config and the deployed slicing as the leading report fields
    ([grid], [dies_per_cell], [fields], [seed], [direction]) shared by
    {!to_json} and {!Compare.to_json}. *)

val to_json : sweep -> string
(** The whole sweep as a JSON document (wafer aggregates plus one
    object per cell). *)
