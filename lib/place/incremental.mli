(** Incremental (ECO) placement for post-processing insertions — the
    methodology's level-shifter step: "we envision incremental
    placement only for level shifter insertion".

    Existing cells never move: each new cell is dropped into the
    nearest free row gap that fits it, searching outward from its
    preferred row.  This keeps the performance-optimized placement
    untouched, which is the whole point of the paper's
    minimum-perturbation island style. *)

open Pvtol_netlist

type stats = {
  inserted : int;
  moved : int;                 (** pre-existing cells displaced: always 0 *)
  mean_displacement : float;   (** new cells' distance from their target, um *)
  max_displacement : float;
}

val insert :
  Placement.t ->
  Netlist.t ->
  desired:(Netlist.cell_id -> Pvtol_util.Geom.point) ->
  Placement.t * stats
(** [insert old_placement new_netlist ~desired] places [new_netlist],
    whose cells [0 .. n_old-1] must correspond one-to-one to the cells
    of [old_placement.netlist] (topology may differ), and whose extra
    cells get their target position from [desired].  Returns a fresh
    legal placement and insertion statistics.

    Raises [Failure] if some new cell fits in no row (the floorplan is
    effectively full).

    {b Search.}  New cells are placed one by one, in id order, each
    taking its span out of the free gaps left by the cells before it.
    A cell of width [w] costs [|pos - x| + dy] in a row: [pos] is the
    position nearest the target's [x] inside a gap at least [w] wide,
    and [dy] is the distance from the target to the row's centre line.
    Rows are tried as [prefer] (the target's row), then
    [prefer - ring] before [prefer + ring] for [ring = 1, 2, ...]; a
    row replaces the best so far only at a strictly lower cost, and the
    search stops once [ring * row_height] reaches the best cost (a
    heuristic bound, kept as the reference placements were made with
    it).  Within a row the earliest (leftmost) gap wins at equal cost.

    Each row keeps its gaps in sorted arrays under a max-width tree.  A
    row is skipped in O(1) when its [dy] alone reaches the best cost or
    its widest gap is narrower than [w]; otherwise a binary search
    finds [x], and the tree steps outward to the next gap wide enough,
    in O(log n) per step, stopping in each direction once the gap's
    distance from [x] strictly exceeds the row's best or, plus [dy],
    reaches the best cost of the rows before.  Taking a span splits its
    gap in place and re-tabulates that row.  Every placement and
    statistic equals the list search that rescans whole rows
    ([test/eco_oracle.ml]).  Rows visited and gaps costed are counted in
    [eco_rows_searched_total] and [eco_gaps_examined_total]. *)
