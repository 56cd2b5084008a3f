(** Head-to-head comparison of post-silicon compensation strategies
    over a wafer grid.

    Every strategy of {!Compensation} is evaluated on the {e same} die
    population: per die, one shared {!Compensation.detect} pass (one
    RNG draw), then each selected strategy re-times that die with its
    own knob.  The grid geometry and per-cell RNG seeding are exactly
    {!Wafer}'s ([cell_position] / [cell_seed]), so the voltage-island
    and chip-wide columns reproduce a [Wafer] sweep of the same
    (grid, dies, fields, seed) bit-for-bit — pinned by the
    differential tests — while the skew-tuning and tunable-buffer
    rivals answer the question no single source paper does: how do the
    competing knobs trade yield against power and area.  The sweep is
    {!Wafer.tally}, projected onto its {!Wafer.tally_total}, so reports
    are bit-identical for every [PVTOL_DOMAINS]. *)

type config = {
  nx : int;
  ny : int;
  dies_per_cell : int;
  fields : int;
  seed : int;
  direction : Island.direction;
  choices : Compensation.choice list;  (** evaluated in list order *)
}

val default_config : config
(** {!Wafer.default_config}'s geometry (8x8, 12 dies/cell, 1 field,
    seed 7, vertical) with every strategy selected. *)

type strategy_result = {
  name : string;
  title : string;
  knob_units : string;
  yield : float;                (** fraction of dies meeting timing *)
  mean_power_mw : float;        (** mean die power under the strategy *)
  mean_knob : float;            (** mean knob count per die *)
  knob_total : int;             (** total knob count over the population *)
  mean_area_um2 : float;        (** mean exercised knob area per die *)
  static_area_um2 : float;      (** design-time area of the knob hardware *)
  max_knob : int;
}

type report = {
  config : config;
  clock_ns : float;
  dies : int;
  yield_uncompensated : float;  (** dies passing with no knob at all *)
  power_baseline_mw : float;    (** everything at 1.0V *)
  results : strategy_result list;  (** one per choice, in request order *)
}

val run :
  ?pool:Pvtol_util.Pool.t -> Flow.t -> Flow.variant -> config -> report
(** Evaluate the selected strategies over the grid.  [Invalid_argument]
    if the grid is empty, the choice list is empty or contains
    duplicates, or the variant's direction does not match the config. *)

val compare : Flow.t -> config -> report
(** Like {!run}, but memoized on the flow's stage graph as the keyed
    stage [compare[<nx>x<ny>-d<dies>-f<fields>-s<seed>-<dir>-<choices>]]
    — traced and computed at most once per (flow, config). *)

val render : report -> string
(** ASCII yield-vs-power table, one row per strategy (plus the
    uncompensated baseline row), with power/area overheads relative to
    the 1.0V baseline. *)

val pp : Format.formatter -> report -> unit

val to_json : report -> string
(** The report as a JSON document: wafer-level aggregates plus one
    object per strategy under ["strategies"]. *)
