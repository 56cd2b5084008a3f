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

    The per-die loop is {!Compensation}'s: one shared detect pass, then
    the [Vi] and [Chipwide] strategies, which {!kernel} bundles on one
    detect context.  The same loop drives the wafer census
    ({!Wafer.run}) and the strategy comparison ({!Compare.run}), so the
    three studies share the exact same per-die physics.

    This is an extension beyond the paper's exhibits: it validates the
    closed detect-and-compensate loop the methodology is designed for. *)

type chip = {
  diagonal_frac : float;    (** die position on the chip diagonal *)
  violating : int;          (** stages actually failing at 1.0V *)
  detected : int;           (** scenario the sensors report *)
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

(** {2 The reference strategies} *)

type kernel = {
  ctx : Compensation.ctx;
  vi : Compensation.strategy;  (** the paper's voltage islands *)
  cw : Compensation.strategy;  (** chip-wide 1.2V adaptation *)
}
(** The paper's two reference strategies on one detect context.
    Immutable; safe to share across domains.  A die is
    {!Compensation.detect} on [ctx], then each strategy's apply. *)

val kernel : Flow.t -> Flow.variant -> kernel
(** Forces the flow stages the die loop reads (netlist, placement, STA,
    sampler, clock, the variant's power configurations at position B);
    afterwards a die touches no stage graph and no shared mutable
    state. *)

(** {2 Population study along the chip diagonal} *)

val run :
  ?n_chips:int ->
  ?seed:int ->
  Flow.t ->
  Flow.variant ->
  study
(** Default: 40 chips, seed 7.  Each chip's die position is uniform on
    the chip diagonal; detection uses the per-die STA (ideal sensors on
    every flop — the paper's Razor subset detects the same scenario by
    construction since it monitors every path that can become
    critical).  Per chip: one uniform for the die position, then
    {!Compensation.detect} and the [vi] and [cw] applies of {!kernel};
    bit-identical to the original dedicated loop. *)

val pp : Format.formatter -> study -> unit
