(** Power analysis (the PrimePower step of the paper's flow).

    Per cell:
    - switching power: toggle rate x frequency x (internal energy at
      the cell's Vdd + 0.5 C_load Vdd^2), with the load from placed
      wire capacitance plus sink pin capacitances;
    - clock power for sequential cells: every cycle charges the clock
      pin regardless of data activity (this is what makes the fully
      synthesized register file dominate total power, Table 1);
    - leakage: library leakage scaled by the DIBL/Vdd model at the
      cell's effective gate length.

    All knobs that the voltage-island experiments vary are function
    parameters: per-cell supply, per-cell Lgate, activity. *)

open Pvtol_netlist

type breakdown = {
  switching_mw : float;
  clock_mw : float;
  leakage_mw : float;
}

type report = {
  frequency_mhz : float;
  total : breakdown;
  by_stage : (Stage.t * breakdown) list;
  per_cell : breakdown array;
      (** indexed by cell id — lets callers attribute power to any cell
          subset (e.g. the level shifters of Table 2) *)
}

val total_mw : breakdown -> float

val analyze :
  ?lgate_nm:(Netlist.cell_id -> float) ->
  vdd:(Netlist.cell_id -> float) ->
  activity:Gatesim.activity ->
  wire_length:(Netlist.net_id -> float) ->
  clock_ns:float ->
  Netlist.t ->
  report
(** [lgate_nm] defaults to the nominal gate length everywhere. *)

val sum_cells : report -> (Netlist.cell_id -> bool) -> breakdown
(** Total over the cells selected by the predicate. *)

val stage_breakdown : report -> Stage.t -> breakdown option

val pp : Format.formatter -> report -> unit
