(** Monte Carlo statistical static timing analysis (paper §4.3).

    Each sample draws a fresh per-gate Lgate realisation at the chosen
    die position, rescales the nominal delays and re-runs STA; the
    per-stage worst path delays are accumulated into distributions that
    are then fitted to normals with a chi-square acceptance test, as
    the paper does.  A per-cell supply assignment makes the same engine
    serve both the plain SSTA of Fig. 3 and the voltage-island
    compensation checks of §4.5.  One run evaluates a list of
    (position, supply map) jobs against one shared stream of draws, so
    the positions A-D, or a set of island checks, cost one draw. *)

open Pvtol_netlist

type config = {
  samples : int;
  seed : int;
}

type stage_stats = {
  stage : Stage.t;
  samples : float array;        (** per-sample worst path delay, ns *)
  summary : Pvtol_util.Stats.summary;
  fit : Pvtol_util.Fit.normal;
  gof : Pvtol_util.Fit.gof;
}

type result = {
  position : Pvtol_variation.Position.t;
  stages : stage_stats list;    (** timing stages with endpoints *)
  worst_samples : float array;  (** global critical-path delay samples *)
  endpoint_critical_count : (Netlist.cell_id, int) Hashtbl.t;
      (** how often each flop was within 2% of the sample's worst
          stage delay — the raw data for Razor site selection *)
}

type job
(** One die position under one supply map: a Monte-Carlo run computes
    one {!result} per job. *)

val job : ?raised:(Netlist.cell_id -> bool) -> Pvtol_variation.Position.t -> job
(** Cells where [raised] holds run at the sampler process's [vdd_high],
    the others at its [vdd_low]; by default every cell is low. *)

val run :
  ?config:config ->
  ?pool:Pvtol_util.Pool.t ->
  sampler:Pvtol_variation.Sampler.t ->
  sta:Pvtol_timing.Sta.t ->
  placement:Pvtol_place.Placement.t ->
  job list ->
  result list
(** One result per job, in job order.  [config] defaults to 400
    samples, seed 2024.  [Invalid_argument] below
    {!Pvtol_util.Fit.min_samples} samples, before any work: every
    stage's sample is fitted and tested.

    The sample range is cut into fixed 32-sample chunks executed on
    [pool] (default {!Pvtol_util.Pool.shared}, sized by the
    [PVTOL_DOMAINS] environment variable).  Each chunk reconstructs —
    in O(1), with {!Pvtol_util.Srng.create_after} — the exact RNG state
    a single serial stream would hold at the chunk's first sample and
    draws the chunk's gaussians in sample-major order, {e once for all
    jobs} (common random numbers: every job reads the same stream).
    Then, job by job, it scales them with that job's
    {!Pvtol_variation.Sampler.batch} fit of both supplies, propagates all
    lanes in one 32-lane STA pass ({!Pvtol_timing.Sta.analyze_into})
    and counts endpoint criticality.  A job's arithmetic never reads
    another job's, so each result is {e bit-identical} to a run of the
    one-element list [[job]]; and every chunk writes a disjoint slice
    of the sample arrays, so the output is bit-identical for every
    domain count.  Against a scalar one-sample-at-a-time loop over the
    same stream, worst-delay samples differ only within the documented
    delay-scale fit bound.  Per-worker workspaces keep the inner loop
    free of per-sample heap allocation.

    Counts [mc_chunks_total] once per chunk, [mc_gaussians_total] by
    the chunk's draws (once, whatever the number of jobs) and
    [mc_samples_total] by the chunk's lanes once per job. *)

val stage_stats : result -> Stage.t -> stage_stats option

val three_sigma_delay : stage_stats -> float
(** mean + 3 sigma of the stage's worst-delay distribution. *)
