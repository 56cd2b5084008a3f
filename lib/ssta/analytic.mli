(** First-order analytic SSTA (the PERT-like single-traversal approach
    of the paper's §2 references [15, 16]), used to cross-check the
    Monte-Carlo engine.

    Every arrival time is carried as a Gaussian (mean, variance).
    Through a cell, the systematic part of the delay shifts the mean
    and the i.i.d. random Lgate component adds variance (first-order
    sensitivity of the Orshansky model); at multi-input joins the MAX
    of two Gaussians is approximated by a Gaussian using Clark's
    moment-matching formulas.

    Independence of path random variables is assumed (no spatial
    correlation of the random component — true in the paper's model —
    and reconvergent-path correlation ignored, the standard first-order
    simplification).  The Monte-Carlo comparison experiment quantifies
    the resulting error. *)

open Pvtol_netlist

type gaussian = { mean : float; var : float }

val clark_max : gaussian -> gaussian -> gaussian
(** Moment-matched Gaussian approximation of max(X, Y) for independent
    X, Y (Clark 1961, first two moments). *)

type result = {
  stage_delay : (Stage.t * gaussian) list;
      (** worst-endpoint delay distribution per capture stage *)
  worst : gaussian;
}

val analyze :
  sta:Pvtol_timing.Sta.t ->
  sampler:Pvtol_variation.Sampler.t ->
  systematic:float array ->
  result
(** Single-traversal statistical analysis at a die position, every
    cell at the low supply (the systematic per-cell Lgate array comes
    from {!Pvtol_variation.Sampler.systematic_lgates}). *)

val three_sigma : gaussian -> float
