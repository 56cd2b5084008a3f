(** Razor-style timing-sensor site selection (paper §4.4).

    After manufacturing, the occurring violation scenario must be
    detected on-line.  The paper observes that only the flip-flops fed
    by paths that *can become critical under variation* need delayed
    shadow sampling — for its execute stage at point A, 12 such paths.
    This module derives those sites from the Monte-Carlo endpoint
    criticality counts and quantifies the sensor overhead. *)

open Pvtol_netlist

type site = {
  endpoint : Netlist.cell_id;
  stage : Stage.t;
  criticality : float;
      (** fraction of Monte-Carlo samples in which this flop's path was
          within 2% of the stage's worst delay *)
}

type plan = {
  sites : site list;              (** all selected sites, all stages *)
  per_stage : (Stage.t * int) list;
  area_overhead : float;
      (** extra area, um^2, assuming a Razor flop costs an extra 70% of
          a standard flop (shadow latch + comparator + mux) *)
  area_overhead_frac : float;     (** relative to total design area *)
}

val select :
  ?min_criticality:float -> Monte_carlo.result -> Pvtol_timing.Sta.t -> plan
(** Flops whose criticality exceeds [min_criticality] (default 0.01 =
    critical in at least 1% of samples), each under its capture stage in
    the timing graph the Monte-Carlo run used. *)
