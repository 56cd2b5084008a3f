(** Placement-aware greedy voltage-island generation (paper §4.5).

    "Based on cell density considerations, we assess the most promising
    side of the processor core floorplan to start selecting candidate
    cells for high-Vdd.  We then progressively extend the slice till
    the achieved performance speed-up is enough to compensate the less
    severe timing violation scenario.  [...]  Then, we build a second
    island incrementally from the first [...]  Finally, a third voltage
    island will be incrementally derived."

    Compensation is checked with a deterministic corner STA: every cell
    takes its systematic Lgate at the scenario's die position plus
    0.35 random sigmas (calibrated against the Monte-Carlo
    3-sigma per-stage delays), cells inside the candidate slice run at
    high Vdd, and every pipeline stage must meet the nominal clock. *)

open Pvtol_netlist

type target = {
  scenario_index : int;                   (** 1 = least severe *)
  position : Pvtol_variation.Position.t;  (** die position to compensate *)
}

type outcome = {
  partition : Island.partition;
  cuts : float array;          (** absolute cut coordinate per island *)
  checks : int;                (** corner STA evaluations performed *)
}

exception Infeasible of string
(** Raised when even the full core at high Vdd cannot compensate a
    target scenario. *)

val corner_check :
  sta:Pvtol_timing.Sta.t ->
  sampler:Pvtol_variation.Sampler.t ->
  clock:float ->
  systematic:float array ->
  raised:(Netlist.cell_id -> bool) ->
  bool
(** The compensation check both island generators accept a candidate
    with: every cell at its corner Lgate [systematic + 0.35 sigma_rnd],
    at high Vdd where [raised] holds, through a full STA that must keep
    every analyzed stage within [clock] (+1e-9 ns).

    Staged in three applications.  The first three arguments set up one
    delay buffer and one 1-lane STA workspace.  Applying [~systematic]
    (once per target) builds the corner delay of every cell at low and
    at high Vdd, two {!Pvtol_stdcell.Process.scale_into} calls over the
    nominal delays.  Each [~raised] check then picks every cell's delay
    from the vector of its supply and runs one
    {!Pvtol_timing.Sta.analyze_into} on the reused workspace.  Checks
    share the buffer and the workspace, so run them one at a time. *)

val generate :
  direction:Island.direction ->
  sta:Pvtol_timing.Sta.t ->
  placement:Pvtol_place.Placement.t ->
  sampler:Pvtol_variation.Sampler.t ->
  clock:float ->
  targets:target list ->
  outcome
(** [targets] ordered least-severe first (scenario 1, 2, 3...).  Each
    cut is searched to 2 um; the side comes from the density map,
    restricted to the sides compatible with [direction]. *)
