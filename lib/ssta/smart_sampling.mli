(** Variance-reduced yield estimation: importance sampling, stratified
    Latin-hypercube positions, and sequential CI-driven stopping.

    The paper's tail events — a die exhibiting the highest violation
    scenario — occur on a few dies per thousand, so brute-force Monte
    Carlo burns nearly all samples on uninformative dies.  This module
    provides the estimator mathematics the {!Pvtol_core.Wafer} sampling
    driver runs on top of the {!Monte_carlo}-engined per-die kernel:

    - {b Importance sampling} (IS): a mixture of mean-shift tilts of
      the standard-normal Lgate noise, one component per near-critical
      endpoint of the stages that must slow down for the rare scenario
      to fire, plus a defensive untilted component.  Weights use the
      balance heuristic of multiple importance sampling (Owen & Zhou,
      JASA 2000), so they are bounded by [1 / alpha] and exactly
      unbiased: [E_q w f = E_p f] for every integrand.  The shift is
      realised {e without touching the die kernel}: the tilted mean
      [sigma * theta * u] is folded into the systematic Lgate field
      ({!Pvtol_variation.Sampler.shifted_systematic}), and the
      likelihood ratio is priced on the raw draw the die kernel itself
      consumes ({!Pvtol_variation.Sampler.sample_lgates} shows its
      gaussians to the caller before adding them to the field).
    - {b Tilt construction}: one component per worst endpoint
      ({!Pvtol_timing.Paths.worst_endpoints}) of each analyzed stage
      that sits below the clock among the [rare] slowest; its direction
      is the normalized per-cell delay sensitivity of the endpoint's
      critical path and its magnitude the linearized distance to the
      violation boundary.
    - {b Latin-hypercube strata}: per-axis stratified jitter plans so
      each of a stratum's sub-rows and sub-columns receives exactly one
      die per round.
    - {b Sequential stopping}: per-stratum {!Pvtol_util.Stream_stats}
      accumulators combined into a stratified estimate and a normal
      confidence interval; the driver stops when the half-width of the
      designated metric reaches the target. *)

open Pvtol_netlist

type method_ = Mc | Is | Lhs

val method_name : method_ -> string

(** {2 Tilt components} *)

type tilt = {
  cells : int array;   (** sparse support (cell ids of the path) *)
  dir : float array;   (** unit direction over [cells] *)
  theta : float;       (** shift magnitude along [dir], in sigmas *)
}

val tilts :
  sampler:Pvtol_variation.Sampler.t ->
  sta:Pvtol_timing.Sta.t ->
  base:float array ->
  systematic:float array ->
  vdd:float ->
  clock:float ->
  stages:Stage.t list ->
  rare:int ->
  unit ->
  tilt array
(** Tilt components for the event "at least [rare] of [stages] violate
    [clock] at supply [vdd]" at the die position whose systematic Lgate
    field is [systematic].  One STA pass ranks the stages; each stage
    that is below the clock among the [rare] slowest contributes its
    48 worst endpoints; each endpoint's traced critical path yields a
    sensitivity direction and a linearized boundary distance, scaled
    by 0.9 (backing off the deterministic boundary toward the
    probabilistic one) and dropped above 8 sigmas (where the event is
    beyond reach and tilting would only waste samples).  Each near component
    (theta at most 4.5) also contributes two ladder rungs at 1/2 and
    3/4 of its theta: they fill the density shadow between the origin
    and the tilted means, collapsing the above-1 weights that rare
    draws in that region would otherwise carry.  Empty when the event
    is already deterministically common or unreachably rare — the
    caller falls back to plain sampling. *)

(** {2 Mixture model and likelihood-ratio weights} *)

type model
(** A site's sampling mixture: defensive mass [alpha] on the untilted
    distribution, the rest split over the tilt components proportional
    to [exp (-theta^2 / 2)] (components with nearer boundaries are
    sampled more), with the component Gram matrix precomputed for the
    balance-heuristic weight. *)

val plain : model
(** The untilted mixture (no components): plain Monte Carlo with unit
    weights, used wherever {!tilts} finds nothing to shift toward. *)

val make : ?alpha:float -> tilt array -> model
(** [alpha] (default 0.2) is the defensive untilted mass; weights are
    bounded by [1 / alpha].  An empty tilt array yields {!plain}. *)

val n_components : model -> int

val pick : model -> Pvtol_util.Srng.t -> int
(** Draw the mixture component for one die — consumes exactly one
    uniform, also on {!plain} so the per-die stream layout is
    method-wide constant.  [-1] selects the defensive untilted
    component. *)

val weight : model -> comp:int -> z:float array -> float
(** Balance-heuristic likelihood ratio of one die:
    [1 / (alpha + sum_j beta_j exp (theta_j <u_j, z_total> -
    theta_j^2 / 2))] where [z] is the die's {e raw} standard-normal
    draw (before the tilt's shift) and [z_total] adds the realised
    shift of component [comp] through the precomputed Gram matrix.
    Bounded by [1 / alpha]; equal to 1 on {!plain}. *)

val shift : model -> comp:int -> (tilt, unit) Either.t
(** The realised Lgate shift of a component pick: [Right ()] for the
    defensive component (no shift), [Left tilt] otherwise. *)

(** {2 Latin-hypercube jitter plans} *)

val lhs_permutations : Pvtol_util.Srng.t -> int -> int array * int array
(** [lhs_permutations rng n]: independent permutations of [0 .. n-1]
    for the x and y axes.  Die [r] of the round then jitters to
    [((px.(r) + ux) / n, (py.(r) + uy) / n)] — every per-axis
    sub-stratum receives exactly one die per round. *)

(** {2 Stratified estimates} *)

val combine :
  confidence:float ->
  (float * Pvtol_util.Stream_stats.Welford.t) array ->
  float * float
(** [combine ~confidence groups] where each group carries probability
    mass [pi] and a {!Pvtol_util.Stream_stats.Welford} accumulator of
    per-die (weighted) values: the stratified estimate
    [sum pi * mean] and its normal-theory CI half-width
    [z * sqrt (sum pi^2 var / n)].  The half-width is [infinity] while
    any group has fewer than two samples (the n<2 variance guard), and
    0 for an empty group set. *)

val effective_samples : Pvtol_util.Stream_stats.Welford.t -> float
(** Kish effective sample size [(sum w)^2 / sum w^2] of a weight
    accumulator; equals the count for unit weights, 0 when empty. *)
