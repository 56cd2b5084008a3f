(** End-to-end methodology flow (paper Fig. 1) as a lazy stage graph.

    [prepare] is cheap: it only declares the {!Stage} nodes — target
    design generation, placement, timing closure with area recovery,
    FIR switching activity, Monte-Carlo SSTA per die position,
    violation-scenario classification, island slicing, level-shifter
    insertion and power analysis.  Each accessor forces exactly the
    stages it needs, computed at most once per flow handle (keyed
    stages — [mc], [islands], [variant], [power_at] — at most once per
    key), so a CLI exhibit, a benchmark, or a test pays only for what
    it reads.

    Every stage run is recorded in the flow's {!Pvtol_util.Trace}
    (span name, dependencies, wall clock, allocation) and failures
    surface as {!Stage.Stage_error} naming the failing stage and its
    forcing chain. *)

open Pvtol_netlist
module Position := Pvtol_variation.Position

type config = {
  vex : Pvtol_vex.Vex_core.config;
  place_iterations : int;
  mc_samples : int;
  mc_seed : int;
  gatesim_cycles : int;
  fir_taps : int;
  fir_samples : int;
}

val default_config : config
(** The paper's design point: full-size VEX, 400 MC samples, 512
    activity cycles, 16-tap/64-sample FIR. *)

val quick_config : config
(** Scaled-down core and sample counts for tests and examples. *)

type t
(** A flow handle: the stage graph plus its memo.  Values are computed
    on first access and shared by every later accessor call. *)

val prepare : ?config:config -> ?sampler:Pvtol_variation.Sampler.t -> unit -> t
(** Declare the stage graph.  No stage is computed until accessed.
    [sampler] (default {!Pvtol_variation.Sampler.create} [()]) is the
    variation model every stage and die reads; the CLI always uses the
    default, tests pass degenerate ones (zero sigma). *)

(** {2 Front-half stages} *)

val config : t -> config
val design : t -> Pvtol_vex.Vex_core.t
val netlist : t -> Netlist.t
(** The sized netlist. *)

val placement : t -> Pvtol_place.Placement.t
val sta : t -> Pvtol_timing.Sta.t
(** Timing graph of the sized netlist: the graph {!sizing} returns. *)

val nominal : t -> Pvtol_timing.Sta.result
(** Nominal-corner STA result of the sized design (the report behind
    [clock]). *)

val clock : t -> float
(** Nominal period, ns (execute-stage critical path). *)

val sizing : t -> Pvtol_timing.Sizing.report
val sampler : t -> Pvtol_variation.Sampler.t
val fir : t -> Pvtol_vexsim.Fir.result

val activity : t -> Pvtol_power.Gatesim.activity
(** The sized netlist's FIR-trace activity over [gatesim_cycles]: the
    flow's one gate-level simulation. *)

val stimulus : t -> Int32.t array list -> Pvtol_power.Gatesim.stimulus
(** An ISS word trace on the [instr[k]] inputs, seeded random bits
    ([mc_seed + 1]) on every other input. *)

val mc : t -> Position.t -> Pvtol_ssta.Monte_carlo.result
(** Monte-Carlo SSTA at a die position; memoized per position label. *)

val mc_all : t -> (Position.t * Pvtol_ssta.Monte_carlo.result) list
(** All named positions.  The ones not yet memoized run as one fused
    Monte-Carlo run (one stage compute, span ["mc[l1,l2,...]"]) that
    draws each chunk's gaussians once for all of them; each result is
    memoized under its own position and is bit-identical to a lone
    {!mc}. *)

val scenarios : t -> Pvtol_ssta.Scenario.t list
(** Violation scenarios at A, B, C, D. *)

(** {2 Back-half stages (per slicing direction)} *)

type variant = {
  direction : Island.direction;
  slicing : Slicing.outcome;
  shifted : Level_shifter.t;
  post_ls_worst : float;        (** nominal worst delay after insertion *)
  degradation : float;          (** (post_ls_worst - clock) / clock *)
}

val islands : t -> Island.direction -> Slicing.outcome
(** Voltage-island generation for one direction; memoized. *)

val variant : t -> Island.direction -> variant
(** Level-shifter insertion, incremental placement and timing closure
    on the islands of one direction; memoized per direction. *)

val logic_grouping : t -> (Logic_grouping.t, string) result
(** The §3 logic-based baseline on the same design; [Error] carries the
    infeasibility message.  Memoized so the ablation and power-grid
    exhibits share one run. *)

(** {2 Power} *)

type supply_config =
  | Baseline_low      (** everything at 1.0V — the pre-compensation design *)
  | Chip_wide_high    (** traditional full-chip adaptation: all at 1.2V *)
  | Islands of Island.direction * int
      (** level-shifted design of that slicing with islands [1..k] raised *)

val power :
  t -> ?position:Position.t -> activity:Pvtol_power.Gatesim.activity ->
  supply_config -> Pvtol_power.Power.report
(** Power at a die position (leakage sees the systematic Lgate map
    there; default position A) under [activity], a run on the sized
    netlist, which [Islands] extends to the level-shifted design
    ({!Pvtol_power.Gatesim.extend}).  All configurations run at the
    nominal fmax, as in §5.  Not memoized. *)

val power_at :
  t -> ?position:Position.t -> supply_config -> Pvtol_power.Power.report
(** [power] under the FIR {!activity}, memoized per (configuration,
    position). *)

val power_mw : t -> ?position:Position.t -> supply_config -> float
(** Total mW of [power_at]. *)

(** {2 Introspection} *)

val trace : t -> Pvtol_util.Trace.t
(** The span trace of every stage computed so far on this handle.
    Callers add their own spans to it with {!Pvtol_util.Trace.span}
    (the CLI one per command, {!Experiments.all} one per exhibit); such
    a span memoizes nothing, and the stages it forces nest inside it.
    No stage is named like a command or an exhibit (the scenario
    classification is the [ladder] stage), so every span name in a
    trace is unique. *)

val growth_targets : Slicing.target list
(** The scenario ladder the islands compensate: island 1 for the
    single-stage scenario at C, island 2 for B, island 3 for A. *)
