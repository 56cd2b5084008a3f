(** Static timing analysis.

    A {!t} is built once per (netlist, placement) pair: it captures the
    levelized evaluation order, per-cell nominal delays (intrinsic +
    load-dependent, with the load from placed wire capacitance and sink
    pin capacitances) and per-pin wire delays.  Each analysis run then
    only needs a per-cell delay array — which is exactly how the
    paper's flow works (SDF delays rewritten per variation sample /
    voltage assignment, then re-imported into the timing engine).

    Conventions: time in ns; flip-flop launch adds clk-to-q, capture
    adds setup; wire delays are not subject to variation or supply
    scaling (paper §4.1 ignores wire variation). *)

open Pvtol_netlist

type t

val build :
  Netlist.t ->
  wire_length:(Netlist.net_id -> float) ->
  capture:(Netlist.cell -> Stage.t option) ->
  t
(** [wire_length] estimates each net's routed length in um (the
    placement's or the router's lengths).  It is called
    once per net and tabulated.  Counts one in [sta_builds_total]. *)

val of_placement :
  Pvtol_place.Placement.t -> capture:(Netlist.cell -> Stage.t option) -> t
(** Wire lengths from placed HPWL. *)

val netlist : t -> Netlist.t

(** {2 Structure accessors (for analyses layered on the same graph,
    e.g. the analytic SSTA)} *)

val comb_order : t -> Netlist.cell_id array
(** Topological order of the combinational cells (fresh copy). *)

val flop_ids : t -> Netlist.cell_id array
(** Sequential cells in id order (fresh copy). *)

val pin_wire_delay : t -> Netlist.cell_id -> int -> float
(** Wire delay charged at a cell's input pin. *)

val capture_stage_of : t -> Netlist.cell_id -> Stage.t option

val net_load : t -> Netlist.net_id -> float
(** Capacitive load on a net, fF: its sink pin caps plus its wire cap
    (the load the nominal delays were computed from). *)

(** {2 Delay vectors} *)

val nominal_delays : t -> float array
(** Fresh copy of the per-cell nominal delays (index = cell id). *)

val scaled_delays : t -> scale:(Netlist.cell_id -> float) -> float array
(** Nominal delays multiplied by a per-cell factor (process variation
    and/or supply assignment). *)

(** {2 Analysis} *)

type result = {
  arrival : float array;      (** per net: output arrival time *)
  endpoint_delay : float array;
      (** per cell: for sequential cells, data arrival + D-pin wire
          delay + setup - the flop's capture skew; 0 elsewhere *)
  worst : float;              (** worst endpoint path delay, ns *)
  worst_endpoint : Netlist.cell_id;  (** -1 if the design has no endpoint *)
  stage_worst : (Stage.t * float * Netlist.cell_id) list;
      (** per capture stage: worst endpoint delay and its flop *)
}

val analyze : ?skew:(Netlist.cell_id -> float) -> t -> delays:float array -> result
(** [skew] gives each flop's clock-arrival offset (from clock-tree
    synthesis or useful-skew assignment): a launch edge arriving late
    delays the data launch; a capture edge arriving late relaxes the
    endpoint by the same amount.  Default: ideal clock (zero skew).
    Runs {!analyze_into} on a fresh 1-lane workspace and copies the
    results out. *)

(** {2 The forward-timing kernel}

    A {!workspace} preallocates all scratch once (typically one per
    worker domain), so {!analyze_into} performs no heap allocation.  It
    holds [lanes] independent analyses side by side: every net and
    every flop owns one contiguous row of [lanes] floats, lane [k] of
    each row belonging to analysis [k].  Sizing and a lone die's
    detection use one lane, a census batch one lane per die, the
    post-silicon island settle one lane per supply configuration it
    prices, the skew settle one lane per clock-tuning state (each lane
    with its own skew row), and Monte-Carlo a 32-sample block per graph
    walk.  Each lane runs the same op sequence — same accumulator init,
    same [>] reductions, same endpoint arithmetic — so a lane's results
    are bit-identical to a 1-lane pass over that lane's delay column
    and skew row.  The pass reads flat
    arrays only: per cell its pin range, per pin its fanin net and wire
    delay, per cell its fanout net.  It walks each cell's pins once per
    block of four lanes with four independent accumulators, rounding
    [lanes] up to whole blocks while they fit the workspace: the extra
    lanes of the last block are computed and never read, so a 2- or
    3-lane pass costs one walk, like a 4-lane one.  Only a workspace of
    fewer than four lanes runs lane by lane. *)

type workspace
(** Mutable scratch sized for one {!t}; do not share across domains. *)

val workspace : ?lanes:int -> t -> workspace
(** [workspace ~lanes t] (default 1 lane) with all-zero skew rows. *)

val skew_row : workspace -> int -> float array
(** [skew_row ws k]: lane [k]'s clock skew, one offset per flop in
    {!flop_ids} order; written in place by the caller.  Every pass
    launches a flop's data in lane [k] at its delay plus the offset of
    row [k] and relaxes its endpoint in lane [k] by the same offset
    (see {!analyze}), so each lane is bit-identical to a 1-lane pass
    with its own row.  Until a lane's first [skew_row] every lane
    reads one shared zero row, so a workspace never run under skew
    holds one row, not one per lane.  Raises [Invalid_argument] unless
    [0 <= k < lanes]. *)

val analyze_into : ?lanes:int -> t -> workspace -> delays:float array -> unit
(** One forward pass over the first [lanes] (default: all) lanes.
    [delays] is cell-major: cell [i]'s delay in lane [k] at index
    [i * stride + k], where [stride] is the workspace's lane count —
    the layout {!Pvtol_variation.Sampler.scale_delays_batch} writes;
    a 1-lane workspace takes a plain per-cell vector.  The columns of
    the lanes a rounded-up block computes beyond [lanes] may hold
    anything, [nan] included; no lane in use reads them.  Results are
    read per lane through the [ws_*] accessors; each call overwrites
    the previous one's.  Counts [lanes] in [sta_analyze_total].  Raises
    [Invalid_argument] if [lanes] is outside [1, stride] or the
    workspace or [delays] is sized for another graph. *)

val ws_worst : workspace -> int -> float
(** [ws_worst ws k] — lane [k]'s worst endpoint delay ([0.] without
    endpoints). *)

val ws_worst_endpoint : workspace -> int -> Netlist.cell_id

val ws_arrival : workspace -> Netlist.net_id -> int -> float
(** [ws_arrival ws nid k] — net [nid]'s arrival time in lane [k]. *)

val ws_endpoint_delay : workspace -> Netlist.cell_id -> int -> float
(** [ws_endpoint_delay ws cid k] — {!result.endpoint_delay} of [cid]
    in lane [k]; [0.] for non-sequential cells. *)

val ws_endpoints_into :
  workspace -> int -> Netlist.cell_id array -> dst:float array -> off:int -> unit
(** [ws_endpoints_into ws k cids ~dst ~off] writes
    [ws_endpoint_delay ws cids.(j) k] into [dst.(off + j)] for every
    [j], without allocating.  Raises [Invalid_argument] if [k] is not a
    lane or [dst] is too short. *)

val ws_stage_delay : workspace -> Stage.t -> int -> float option

val required : t -> delays:float array -> clock:float -> float array
(** Backward pass: per-net required time under the clock constraint.
    Slack of a cell = required(fanout) - arrival(fanout). *)

val required_with :
  t ->
  delays:float array ->
  endpoint_required:(Stage.t option -> float) ->
  float array
(** Generalised backward pass: each flop's data-arrival constraint is
    given by its capture stage (synthesis path groups — used by the
    per-stage sizing budgets). *)

(** {2 Re-drivable view}

    A sizing pass re-times one graph whose cell masters (drive
    strengths) change from round to round.  A {!view} holds a mutable
    master per cell, the committed per-net loads and per-cell nominal
    delays, one kept 1-lane workspace and one kept required-time
    buffer; a round re-drives cells in place instead of building a new
    netlist and graph.  The topology, wire table and capture map are
    those of the graph the view was made from.  Do not share a view
    across domains. *)

type view

val view : t -> view
(** A view of [t] at [t]'s masters, loads and delays.  Allocates its
    workspace once (counted in [sta_workspace_total]). *)

val master : view -> Netlist.cell_id -> Pvtol_stdcell.Cell.t
(** The cell's current master, staged changes included. *)

val set_master : view -> Netlist.cell_id -> Pvtol_stdcell.Cell.t -> unit
(** Stage a re-drive of one cell: loads and delays stay as committed
    until {!commit}.  Raises [Invalid_argument] if the new master is of
    another kind. *)

val commit : view -> unit
(** Re-evaluate the loads of the nets whose sinks were re-driven and
    the delays of the re-driven cells and of those nets' drivers, with
    the same float operations as {!build}: after a commit, the view's
    loads and delays are bit-identical to those of a fresh {!build} of
    the re-driven netlist with the same wire lengths and capture map. *)

val view_load : view -> Netlist.net_id -> float
(** Committed load of a net, fF (see {!net_load}). *)

val analyze_view : view -> workspace
(** {!analyze_into} of the committed delays into the view's kept
    workspace, returned for reading at lane 0 (overwritten by the next
    call). *)

val required_view :
  view -> endpoint_required:(Stage.t option -> float) -> float array
(** {!required_with} of the committed delays into the view's kept
    per-net buffer, returned (overwritten by the next call). *)

val freeze : view -> t
(** Commit, then the graph of the re-driven netlist: the input graph
    itself if no master changed, otherwise one {!Netlist.remap_cells}
    of its netlist with copies of the committed loads and delays.  Not
    a build (not counted in [sta_builds_total]); the view stays
    usable. *)

val stage_delay : result -> Stage.t -> float option
(** Worst path delay captured by a stage, if it has endpoints. *)

val endpoints_of_stage : t -> Stage.t -> Netlist.cell_id list
(** Flops captured by [stage], in id order (precomputed at build). *)

val stage_endpoint_ids : t -> Stage.t -> Netlist.cell_id array
(** Array form of {!endpoints_of_stage} (fresh copy); lets hot loops
    iterate endpoints without consing. *)
