(** Post-silicon compensation, evaluated over a chip population.

    The paper's deployment story (§1, §3): after fabrication, Razor
    timing sensors detect which violation scenario a die exhibits and
    the matching number of voltage islands is raised.  This module
    plays that story out across a population of simulated dies — each
    with its own position on the exposure field and its own random
    per-gate Lgate draw — and reports the timing yield and power of

    - no compensation (everything at 1.0V),
    - traditional chip-wide adaptation (1.2V whenever anything fails),
    - the paper's island scheme (raise exactly the detected scenario's
      islands).

    Each chip is a one-die site of {!Wafer.tally}, the loop the wafer
    census ({!Wafer.run}) and the strategy comparison ({!Compare.run})
    share, so the three studies run the exact same per-die physics and
    the study runs on the domain pool.  It detects once, then applies
    {!Compensation.kernel}'s [vi] and [cw] strategies.

    This is an extension beyond the paper's exhibits: it validates the
    closed detect-and-compensate loop the methodology is designed for. *)

type chip = {
  diagonal_frac : float;    (** die position on the chip diagonal *)
  violating : int;          (** stages failing at 1.0V, the scenario the
                                ideal sensors report *)
  raised : int;             (** islands the controller raises *)
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
  (* Mean total power over the population, each chip at its own
     compensation level, vs every failing chip at chip-wide 1.2V. *)
  mean_power_islands_mw : float;
  mean_power_chip_wide_mw : float;
}

val kernel : Flow.t -> Flow.variant -> Compensation.kernel
(** {!Compensation.kernel}: the study's two strategies on one detect
    context. *)

(** {2 Population study along the chip diagonal} *)

val run :
  ?n_chips:int ->
  ?seed:int ->
  ?pool:Pvtol_util.Pool.t ->
  Flow.t ->
  Flow.variant ->
  study
(** Default: 40 chips, seed 7, the shared pool.  Each chip's die
    position is uniform on the chip diagonal; detection uses the
    per-die STA (ideal sensors on every flop — the paper's Razor subset
    detects the same scenario by construction since it monitors every
    path that can become critical).  The study is one serial stream
    from [seed]: per chip, one uniform for the die position, then
    {!Compensation.detect}'s gaussians.  Chip [i] resumes it at its
    start ({!Pvtol_util.Srng.create_after}) as a one-die {!Wafer.tally}
    site, and the study is a parallel projection of the chips' tallies,
    bit-identical for every pool size and to the serial replay. *)

val pp : Format.formatter -> study -> unit
