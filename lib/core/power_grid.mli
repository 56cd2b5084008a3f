(** Power-supply-network (IR-drop) feasibility of a voltage domain.

    The paper motivates its slab-shaped islands by power-network
    synthesizability ("the simplest ones that facilitate the synthesis
    of power supply networks with minimum impact").  This module makes
    that concern measurable: a domain's supply is modelled as a
    resistive strap grid over the bins its cells occupy, fed from pad
    bins on the core boundary, with each bin drawing its cells' current;
    the resulting nodal equations are relaxed to give the static IR-drop
    map.

    Domains that do not reach the boundary anywhere — e.g. scattered
    logic-based selections — show up as unreachable bins: patches a
    real supply network could only feed with dedicated routing. *)

type result = {
  max_drop_mv : float;      (** over reachable bins *)
  mean_drop_mv : float;
  supplied_bins : int;
  pad_bins : int;
  unreachable_bins : int;   (** domain bins with no strap path to a pad *)
  iterations : int;
}

val analyze :
  placement:Pvtol_place.Placement.t ->
  member:(Pvtol_netlist.Netlist.cell_id -> bool) ->
  current_ma:(Pvtol_netlist.Netlist.cell_id -> float) ->
  vdd:float ->
  result
(** [member] selects the domain's cells; [current_ma] each cell's draw.
    A 24x24 bin grid, 2 ohm per strap segment.  Deterministic
    Gauss-Seidel relaxation to 1 uV residual (bounded iterations). *)
