(** Pluggable post-silicon compensation strategies.

    The paper compensates variation-hit dies with voltage islands only,
    but the post-silicon literature offers direct rivals: clock-tuning
    elements with criticality-aware SSTA (arXiv:1705.04986) and
    post-silicon tunable buffers configured via statistical prediction
    (EffiTest, arXiv:1705.04992).  This module is the one
    implementation of the "detect scenario -> apply knob -> re-verify
    -> cost" loop, as a strategy interface, so every knob competes
    under {e identical per-die physics}: one shared {!detect} pass per
    die (the sensors' verdict at the low supply), then each strategy
    re-times the {e same} Lgate realisation with its own knob and
    reports a {!outcome} (meets-timing verdict, knob count, die power,
    exercised area).  The diagonal {!Postsilicon.run} study, the
    {!Wafer} census and sampling estimator and the {!Compare} shoot-out
    all run their dies through it.

    A strategy's precomputed state is immutable and safe to share
    across domains; everything mutable lives in the closure returned by
    [fresh_apply] (one per concurrent caller) and in the shared
    {!scratch}.  The island/chip-wide strategies re-time through the
    scratch's incremental STA, which is exact, so they stay
    bit-identical to the golden-pinned [Postsilicon.run] study. *)

open Pvtol_netlist

val analyzed : Stage.t list
(** The capture stages whose violation defines a scenario (Decode,
    Execute, Writeback — the ladder of paper section 4.4). *)

(** {2 Shared per-die physics} *)

type ctx
(** Everything die-independent that every strategy shares: the STA, the
    sampler, nominal delays, clock, the two supplies and the
    baseline/chip-wide power levels.  Immutable. *)

type scratch
(** Per-caller mutable state (STA workspaces, the systematic-map,
    Lgate and delay buffers) shared by {!detect} and the strategies.
    One per concurrent simulator.  It records the supply each delay was
    scaled at, so every cell's exact delay scale is computed at most
    once per (die, supply): an island raise rescales only that island,
    chip-wide only the cells still low, and skew tuning and tunable
    buffers read the low-supply vector {!detect} kept. *)

type detect = {
  violating : int;       (** analyzed stages failing at the low supply *)
  worst_low_ns : float;  (** worst analyzed-stage delay at the low supply *)
}

type outcome = {
  meets : bool;       (** timing met after the knob was applied *)
  knob : int;         (** islands raised / flops tuned / buffers enabled *)
  power_mw : float;   (** total die power under this strategy *)
  area_um2 : float;   (** area of the knob hardware exercised on this die *)
}

val context : Flow.t -> ctx
(** Forces the flow stages every strategy reads (netlist, placement,
    STA, sampler, clock, baseline and chip-wide power at position B). *)

val scratch : ctx -> scratch
val clock : ctx -> float
val power_baseline_mw : ctx -> float
val power_chip_wide_mw : ctx -> float

val systematic : ctx -> Pvtol_variation.Position.t -> float array
(** Per-cell systematic Lgate at a die position; deterministic, compute
    once per position and share across that position's dies. *)

val systematic_into :
  ctx -> scratch -> Pvtol_variation.Position.t -> float array
(** {!systematic} written into the scratch's own map buffer, which is
    returned: no allocation, for loops that move the die every few dies.
    The buffer is overwritten by the next call on the same scratch. *)

val detect : ctx -> scratch -> systematic:float array -> Pvtol_util.Srng.t -> detect
(** One die's sensor verdict: draw its random Lgate realisation from
    [rng] (exactly one {!Pvtol_variation.Sampler.sample_lgates} call —
    strategies consume no RNG, so the per-die stream is identical for
    every strategy subset), re-time it at the low supply and count the
    failing analyzed stages.  [systematic] may be the scratch's own
    {!systematic_into} buffer.  Counts the die in
    [postsilicon_dies_total]. *)

(** {2 The strategy interface} *)

type strategy = {
  name : string;          (** short key: "vi", "chipwide", "skew", "buffers" *)
  title : string;         (** human-readable, for tables *)
  knob_units : string;    (** what [knob] counts: "islands", "flops", ... *)
  static_area_um2 : float;
      (** design-time area the knob hardware adds to {e every} die
          (level shifters, tuning elements, buffer chains) *)
  max_knob : int;         (** upper bound of [outcome.knob] *)
  fresh_apply : unit -> scratch -> detect -> outcome;
      (** [fresh_apply ()] allocates this caller's private mutable
          state and returns the apply function: given the shared
          scratch right after (or any time after) {!detect} on the same
          die, re-verify under this strategy's knob and cost it.  On a
          die with [violating = 0] every strategy returns
          [{meets = true; knob = 0; ...}] without touching the STA
          (no knob is configured on passing silicon). *)
}

(** {2 Strategy constructors} *)

val voltage_islands : Flow.t -> ctx -> Flow.variant -> strategy
(** The paper's scheme, verbatim from the pre-refactor settle loop:
    raise islands [1..r] starting at the detected scenario, escalating
    while violations persist.  [knob] = islands raised; power from the
    memoized per-raised-level power stages; static area = the variant's
    level-shifter area.  Adds the islands raised to
    [postsilicon_islands_raised_total]. *)

val chip_wide : ctx -> strategy
(** Traditional full-chip adaptation: everything to 1.2V whenever
    anything fails.  [knob] = 1 iff the die needed the raise. *)

val skew_tuning :
  ?range_frac:float -> ?steps:int -> ctx -> strategy
(** Post-silicon clock-tuning elements (arXiv:1705.04986): useful-skew
    borrowing between pipeline stages.  A clock tree is synthesized
    over the placed flops ({!Pvtol_timing.Clock_tree}) and its
    insertion-delay map ({!Pvtol_timing.Clock_tree.skew_of}) is the
    baseline clock-arrival skew; each analyzed-stage capture flop
    carries a tuning element that can delay its edge by up to
    [range_frac] of the clock (default 0.10) in [steps] equal steps
    (default 4).  The settle loop mirrors the island controller's:
    while an analyzed stage fails, delay its capture flops one step
    (helping that stage, loading the next — the borrowing physics of
    {!Pvtol_timing.Sta.analyze}'s skew handling) and re-verify.
    [knob] = flops with a nonzero setting.  The die stays at the low
    supply; cost is the tuning elements' clock-rate switching and
    leakage. *)

val tunable_buffers :
  ?sites_per_stage:int ->
  ?max_per_site:int ->
  ?trim_frac:float ->
  ctx ->
  strategy
(** EffiTest-style post-silicon tunable buffers (arXiv:1705.04992):
    delay-trim stages inserted at design time on the worst low-supply
    paths.  Sites are the [sites_per_stage] (default 8) worst nominal
    low-supply endpoints of each analyzed stage
    ({!Pvtol_timing.Paths.worst_endpoints}); each site carries
    [max_per_site] (default 4) trim stages of [trim_frac] of the clock
    each (default 0.02).  Per die, a greedy loop enables one trim at a
    time on the binding endpoint of a failing stage until every stage
    meets or the binding endpoint has no (more) trims — the die's
    reported power/area cost is monotone in the buffers enabled.
    [knob] = trim stages enabled. *)

(** {2 Strategy selection} *)

type choice = Vi | Chipwide | Skew | Buffers

val all_choices : choice list
(** [Vi; Chipwide; Skew; Buffers] — the canonical comparison order. *)

val choice_name : choice -> string
val choice_of_name : string -> choice option
val choices_label : choice list -> string
(** Stable comma-joined label ("vi,skew"), used as stage-key material. *)

val build : Flow.t -> ctx -> Flow.variant -> choice -> strategy
