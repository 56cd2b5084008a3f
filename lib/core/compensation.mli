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
    across domains; everything mutable lives in the {!scratch} each
    concurrent caller leases, so [fresh_apply] allocates nothing.
    {!detect} scales the die at both supplies at once; the island
    strategy prices every raise it may need, and the all-high
    configuration, as the lanes of one STA pass, and chip-wide reads
    that all-high verdict.  Skew tuning prices four speculative tune
    states per pass, and tunable buffers re-time nothing: they read the
    endpoint delays of {!detect}'s own pass.  Every lane is
    bit-identical to a 1-lane pass over its configuration, so every
    outcome is bit-identical to the sequential, one-pass-per-state
    settle (the test oracle) and to the golden-pinned [Postsilicon.run]
    study. *)

open Pvtol_netlist

val analyzed : Stage.t list
(** {!Pvtol_ssta.Scenario.analyzed_stages}, the capture stages whose
    violation defines a scenario. *)

(** {2 Shared per-die physics} *)

type ctx
(** Everything die-independent that every strategy shares: the STA, the
    sampler, nominal delays, clock, the baseline/chip-wide power levels
    and the analyzed stages' capture flops.  Immutable. *)

type scratch
(** Per-caller mutable state shared by {!detect} and the strategies:
    a 1-lane and a {!batch_lanes}-lane STA workspace, the
    systematic-map and Lgate buffers, per lane a die's delay vectors at
    the low and the high supply, and the lane block of a batched detect
    and of the island settle; per lane the endpoint delays of the
    analyzed stages' capture flops that {!detect_lanes} keeps of its
    pass; and the skew settle's {!batch_lanes} tune
    states and the buffer settle's trims, both per capture flop.  One
    per concurrent simulator.  {!draw} fills a lane's two delay vectors
    and {!select} makes a lane the current die; the island strategy
    selects between its vectors per cell and lane, chip-wide reads the
    high one (or the all-high verdict the island settle stamped on this
    die), skew tuning reads the low one and tunable buffers the kept
    endpoint delays.  The skew settle times its lanes on the
    {!batch_lanes}-lane workspace and sets its skew rows back to zero,
    so every other pass on the scratch runs under an ideal clock. *)

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
(** A fresh scratch. *)

val with_scratches : ctx -> ((unit -> scratch) -> 'a) -> 'a
(** [with_scratches ctx f] runs [f lease], where [lease ()] hands out
    a scratch no other lease holds: one returned by an earlier
    [with_scratches] on the same timing graph if any is free, else a
    fresh one.  When [f] returns or raises, every scratch it leased
    goes back to the graph's free list, so repeated fan-outs over one
    flow allocate no per-cell buffer.  [lease] may be called from any
    domain. *)

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

val batch_lanes : int
(** The widest detect batch, and the lanes of an island settle: 4. *)

val draw : ctx -> scratch -> int -> systematic:float array ->
  raw:(float array -> unit) -> Pvtol_util.Srng.t -> unit
(** [draw ctx sc k ~systematic ~raw rng]: one die's random Lgate realisation
    from [rng] (exactly one {!Pvtol_variation.Sampler.sample_lgates}
    call, whose raw gaussians [raw] sees: an importance-sampled die
    prices its weight there, others pass [ignore];
    strategies consume no RNG, so the per-die stream is identical for
    every strategy subset), scaled at both supplies
    ({!Pvtol_stdcell.Process.supply_delays}) into lane [k]'s vectors.
    [systematic] is read before [draw] returns; it may be the scratch's
    own {!systematic_into} buffer.  [Invalid_argument] unless
    [0 <= k < batch_lanes]. *)

val detect_lanes : ctx -> scratch -> int -> unit
(** [detect_lanes ctx sc m]: the sensor verdicts of the dies drawn into
    lanes [0, m), re-timed at the low supply as the lanes of one STA
    pass (a lone die as one 1-lane pass), each lane bit-identical to a
    1-lane pass over its die.  Every verdict, and per lane the
    endpoint delays of the analyzed stages' capture flops
    (O(endpoints), for the skew and buffer settles), is read off the
    pass before this returns, so the strategies may reuse the
    workspaces.
    Counts the [m] dies in [postsilicon_dies_total].
    [Invalid_argument] unless [1 <= m <= batch_lanes]. *)

val select : scratch -> int -> detect
(** [select sc k]: lane [k]'s verdict from the latest {!detect_lanes},
    making its die the one the strategies re-time: their applies read
    lane [k]'s delay vectors and kept endpoint delays, and the island
    settle's all-high stamp names this die.  Select each lane before
    applying strategies to it. *)

val detect : ctx -> scratch -> systematic:float array -> Pvtol_util.Srng.t -> detect
(** One die as a batch of one: {!draw} into lane 0, {!detect_lanes}
    [1], {!select} [0]. *)

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
      (** [fresh_apply ()] returns the apply function (it allocates
          nothing: a strategy's per-die state lives in the scratch):
          given the scratch right after (or any time after) {!detect}
          or {!select} of the same die, re-verify under this strategy's
          knob and cost it.  On a die with [violating = 0] every
          strategy returns [{meets = true; knob = 0; ...}] without
          touching the STA (no knob is configured on passing
          silicon). *)
}

(** {2 Strategy constructors} *)

val voltage_islands : Flow.t -> ctx -> Flow.variant -> strategy
(** The paper's scheme, the pre-refactor settle rule: raise islands
    [1..r] starting at the detected scenario [r0], escalating while
    violations persist.  A failing die is priced by one STA pass of
    [n_islands - r0 + 2] lanes (raises [r0..n_islands] and the all-high
    configuration, counted per lane in [sta_analyze_total] and in
    [compensation_settle_lanes_total]); the first
    raise that meets wins.  [knob] = islands raised; power from the
    memoized per-raised-level power stages; static area = the variant's
    level-shifter area.  Adds the islands raised to
    [postsilicon_islands_raised_total].  Raises [Invalid_argument] for
    a partition of more than three islands (every flow slicing has
    three). *)

type kernel = {
  ctx : ctx;
  vi : strategy;  (** the paper's voltage islands *)
  cw : strategy;  (** chip-wide 1.2V adaptation *)
}
(** The paper's two reference strategies on one detect context.
    Immutable; safe to share across domains.  A die is {!detect} on
    [ctx], then each strategy's apply. *)

val kernel : Flow.t -> Flow.variant -> kernel
(** Forces the flow stages the die loop reads (netlist, placement, STA,
    sampler, clock, the variant's power configurations at position B);
    afterwards a die touches no stage graph and no shared mutable
    state. *)

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
    {!Pvtol_timing.Sta.analyze}'s skew handling) and re-verify, at most
    [steps] times the number of analyzed stages.  A pass prices four
    tune states as the lanes of the scratch's
    {!batch_lanes}-lane workspace, each with its own skew row: the
    current state and the three reached if the failing stages stay
    those of the latest step (the first pass guesses them from the
    endpoint delays {!detect} kept); the walk reads lanes until the
    failing set changes, so every state it reads is the sequential
    rule's, bit for bit.  Counts its passes in
    [skew_settle_passes_total] and four lanes per pass in
    [sta_analyze_total].  [knob] = flops with a nonzero setting.  The
    die stays at the low supply; cost is the tuning elements'
    clock-rate switching and leakage.  The clock tree is synthesized
    once per timing graph. *)

(** {2 Strategy selection} *)

type choice =
  | Vi        (** {!voltage_islands} *)
  | Chipwide  (** traditional full-chip adaptation: everything to 1.2V
                  whenever anything fails; [knob] = 1 iff the die
                  needed the raise *)
  | Skew      (** {!skew_tuning} with its defaults *)
  | Buffers   (** EffiTest-style post-silicon tunable buffers
                  (arXiv:1705.04992): delay-trim stages on the 8 worst
                  nominal low-supply endpoints of each analyzed stage,
                  enabled greedily per die from the endpoint delays
                  {!detect} kept, with no STA pass; [knob] = trim
                  stages enabled *)

val all_choices : choice list
(** [Vi; Chipwide; Skew; Buffers] — the canonical comparison order. *)

val choice_name : choice -> string
val choice_of_name : string -> choice option
val choices_label : choice list -> string
(** Stable comma-joined label ("vi,skew"), used as stage-key material. *)

val build : Flow.t -> ctx -> Flow.variant -> choice -> strategy
