(** Logic-based voltage assignment — the baseline the paper argues
    against.

    §3: "logic-based voltage assignment heavily constrains the
    placement, and hence might jeopardize design predictability by
    giving rise to unexpected large wirelengths and delay penalties";
    §4.5: grouping "cells that are logically inter-related (e.g., they
    belong to the same functional unit) but are placed far apart in the
    input placement [causes] large wirelength and delay penalties".

    This module implements that alternative — nested high-Vdd sets
    selected by *functional unit* in decreasing timing criticality,
    exactly like the sub-unit selection of the paper's reference [12] —
    so the ablation harness can quantify the comparison on the same
    design: level-shifter demand and the spatial fragmentation that
    would have to be paid for in power-grid routing. *)

type t = {
  domains : int array;
      (** per-cell domain, 1-based; [n_scenarios + 1] = never raised.
          Same semantics as placement-derived island domains. *)
  units_per_scenario : string list array;
      (** functional units newly raised at each scenario index *)
}

exception Infeasible of string

val generate :
  sta:Pvtol_timing.Sta.t ->
  placement:Pvtol_place.Placement.t ->
  sampler:Pvtol_variation.Sampler.t ->
  clock:float ->
  targets:Slicing.target list ->
  t
(** Greedy unit selection: units are ranked by the worst corner arrival
    time of their cells' output nets, and added to the raised set until
    each scenario's corner STA meets the clock (same acceptance
    criterion as the placement-aware generator). *)

val fragmentation :
  Pvtol_place.Placement.t -> domains:int array -> raised:int -> int
(** Number of 8-connected components of the high-Vdd region on a
    density grid when [raised] domains are up — the count of physically
    disjoint power-domain patches a supply network would have to reach
    (1 for the paper's slab islands). *)
