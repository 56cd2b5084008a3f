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

    The detect-and-compensate loop for ONE die is exposed as a reusable
    {!kernel} + {!simulate_die} pair so population drivers — the
    diagonal {!run} study below, and the wafer-scale 2D sweep of
    {!Wafer} — share the exact same per-die physics.  A kernel is
    immutable once built; each concurrent caller brings its own
    {!scratch}, so dies can be simulated from pool workers in
    parallel.

    Since the strategy refactor the kernel is itself a thin shell over
    {!Compensation}: detection and both compensation schemes are the
    [Vi] and [Chipwide] strategies of that interface, applied in
    sequence — which is how they stay bit-identical to the
    {!Compare.run} columns racing them against the post-silicon
    rivals (clock-skew tuning, tunable buffers).

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

(** {2 Single-die kernel} *)

type kernel
(** Everything position- and die-independent, precomputed once: the
    STA, the nominal delays, the island→cell domain map, the clock and
    the power table per compensation level.  Immutable; safe to share
    across domains. *)

type scratch
(** Per-caller mutable state (STA workspace, Lgate and delay buffers).
    One per concurrent simulator; reused across dies without
    allocation. *)

type die = {
  die_violating : int;          (** stages actually failing at 1.0V *)
  die_detected : int;           (** scenario the sensors report *)
  die_raised : int;             (** islands the controller raises *)
  die_meets_uncompensated : bool;
  die_meets_compensated : bool;
  die_meets_chip_wide : bool;
  die_worst_low_ns : float;
      (** worst analyzed-stage delay at the low supply — the die's
          pre-compensation critical path *)
}

val kernel : Flow.t -> Flow.variant -> kernel
(** Forces the flow stages it reads (netlist, placement, STA, sampler,
    clock, the variant's power configurations); afterwards
    {!simulate_die} touches no stage graph and no shared mutable
    state.  The settle loop re-propagates each supply configuration
    incrementally from the previous one's arrivals
    ({!Pvtol_timing.Sta.analyze_incremental_into}, exact). *)

val scratch : kernel -> scratch
val n_islands : kernel -> int
val clock : kernel -> float

val systematic : kernel -> Pvtol_variation.Position.t -> float array
(** Per-cell systematic Lgate at a die position (any position — not
    just the A-D diagonal).  Deterministic; compute once per position
    and share across the dies simulated there. *)

val systematic_into :
  kernel -> scratch -> Pvtol_variation.Position.t -> float array
(** {!systematic} written into the scratch's own map buffer and returned
    ({!Compensation.systematic_into}); valid until the next call on the
    same scratch. *)

val simulate_die :
  kernel -> scratch -> systematic:float array -> Pvtol_util.Srng.t -> die
(** One die: draw its random Lgate realisation from [rng] (exactly one
    {!Pvtol_variation.Sampler.sample_lgates} call), detect the failing
    stages at the low supply, raise islands until timing is met
    (closed-loop settle), and evaluate the chip-wide alternative.
    Consumes RNG draws only for the Lgate sampling, so callers control
    the stream layout. *)

val power_islands_mw : kernel -> raised:int -> float
(** Total chip power with islands [1..raised] at the high supply. *)

val power_chip_wide_mw : kernel -> float
val power_baseline_mw : kernel -> float

val die_power_islands_mw : kernel -> die -> float
(** Power of the die under the island scheme (its own raised level). *)

val die_power_chip_wide_mw : kernel -> die -> float
(** Power under chip-wide adaptation: baseline if the die passes
    uncompensated, everything at 1.2V otherwise. *)

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
    critical).  Implemented on {!simulate_die}; bit-identical to the
    original dedicated loop. *)

val pp : Format.formatter -> study -> unit
