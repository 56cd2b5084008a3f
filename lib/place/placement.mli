(** Placement state: a coordinate per cell of a netlist within a
    floorplan.  Produced by {!Placer}, refined by {!Legalize} and
    {!Incremental}; consumed by timing (wire delays), the voltage-island
    generator (slicing on physical coordinates) and the density map. *)

open Pvtol_netlist

type t = {
  netlist : Netlist.t;
  floorplan : Floorplan.t;
  xs : float array;  (** cell id -> center x, um *)
  ys : float array;  (** cell id -> center y (row center), um *)
}

val create : Netlist.t -> Floorplan.t -> t
(** All cells at the core center (pre-placement). *)

val cell_width : Netlist.cell -> Floorplan.t -> float
(** Footprint width of a cell: area / row height. *)

val hpwl : t -> Netlist.net_id -> float
(** Half-perimeter wirelength of a net, um. *)

val wire_length : t -> Netlist.net_id -> float
(** Routed-length estimate: HPWL corrected for fanout.  A rectilinear
    Steiner tree over [n] pins spread in a box exceeds the box
    half-perimeter by roughly a [sqrt n] factor, so
    [length = hpwl * (1 + 0.35 * (sqrt fanout - 1))].  This is what
    timing should consume; it is the correction that makes the heavily
    loaded register-file write and select nets as slow as they are in
    synthesized (non-custom) register files. *)

val wire_lengths : t -> float array
(** {!wire_length} of every net, indexed by net id.  Tabulate once and
    index it wherever lengths are looked up per pin or per round. *)

val total_hpwl : t -> float
