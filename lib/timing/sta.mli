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
(** [wire_length] estimates each net's routed length in um (HPWL after
    placement, a fanout-based wireload model before).  It is called
    once per net and tabulated. *)

val resize : t -> Netlist.t -> t
(** [resize t nl'] is [build nl'] for a netlist that differs from
    [netlist t] only in its cell masters (drive strengths), e.g. the
    result of {!Netlist.remap_cells}.  It reuses the topological order,
    levels, per-pin wire delays, capture map and endpoint sets, and
    recomputes only the net loads and nominal delays, with the same
    float operations as {!build}: every result is bit-identical to a
    fresh [build] with the same [wire_length] and [capture] (the
    capture map is kept, so [capture] must not depend on drive
    strength).  Raises [Invalid_argument] unless [nl'] has the same
    library, nets, cell pins and sequential cells as [netlist t]. *)

val of_placement :
  Pvtol_place.Placement.t -> capture:(Netlist.cell -> Stage.t option) -> t
(** Wire lengths from placed HPWL. *)

val wireload_model : Netlist.t -> Netlist.net_id -> float
(** Pre-placement fanout-based wireload estimate. *)

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
      (** per cell: for sequential cells, data arrival + setup at the D
          pin; 0 elsewhere *)
  worst : float;              (** worst endpoint path delay, ns *)
  worst_endpoint : Netlist.cell_id;  (** -1 if the design has no endpoint *)
  stage_worst : (Stage.t * float * Netlist.cell_id) list;
      (** per capture stage: worst endpoint delay and its flop *)
}

val analyze : ?skew:(Netlist.cell_id -> float) -> t -> delays:float array -> result
(** [skew] gives each flop's clock-arrival offset (from clock-tree
    synthesis or useful-skew assignment): a launch edge arriving late
    delays the data launch; a capture edge arriving late relaxes the
    endpoint by the same amount.  Default: ideal clock (zero skew). *)

(** {2 Allocation-free analysis}

    {!analyze} allocates a fresh arrival / endpoint-delay pair per call,
    which dominates the cost of tight Monte-Carlo loops.  A {!workspace}
    preallocates all scratch once (typically one per worker domain) and
    {!analyze_into} reuses it: the inner loop performs no per-sample
    heap allocation of the arrival/endpoint arrays and produces floats
    bit-identical to {!analyze}. *)

type workspace
(** Mutable scratch sized for one {!t}; do not share across domains. *)

val workspace : t -> workspace

val analyze_into :
  ?skew:(Netlist.cell_id -> float) -> t -> workspace -> delays:float array -> unit
(** Same semantics as {!analyze}, with results left in the workspace
    and read through the [ws_*] accessors.  Each call overwrites the
    previous one's results. *)

val ws_worst : workspace -> float
val ws_worst_endpoint : workspace -> Netlist.cell_id
val ws_endpoint_delay : workspace -> Netlist.cell_id -> float
val ws_stage_delay : workspace -> Stage.t -> float option

(** {2 Batched structure-of-arrays analysis}

    The batched Monte-Carlo engine propagates a block of samples per
    graph edge: every cell/net owns one contiguous row of [stride]
    lanes, lane [k] of every row belonging to sample [k].  Within a
    lane the arithmetic is exactly {!analyze_into} on that lane's delay
    column — same op order, same accumulator init, same [>] reductions
    — so each lane's results are bit-identical to a scalar analysis of
    the same per-cell delays. *)

type batch_workspace
(** Scratch for one block of lanes; do not share across domains. *)

val batch_workspace : ?lanes:int -> t -> batch_workspace
(** [batch_workspace ~lanes t] preallocates rows of [lanes] (default
    32, the Monte-Carlo chunk size) samples per cell and net. *)

val batch_stride : batch_workspace -> int
(** The row stride (the [lanes] capacity it was built with). *)

val batch_delays : batch_workspace -> float array
(** The cell-major delay block the caller fills before
    {!analyze_batch_into}: cell [i]'s delay for lane [k] at index
    [i * stride + k] — the layout {!Pvtol_variation.Sampler.scale_delays_batch}
    writes. *)

val analyze_batch_into : t -> batch_workspace -> lanes:int -> unit
(** Analyze the first [lanes] columns of {!batch_delays} in one forward
    pass ([1 <= lanes <= stride]) under an ideal clock.  Results are
    read per lane through the [bw_*] accessors. *)

val bw_worst : batch_workspace -> int -> float
val bw_worst_endpoint : batch_workspace -> int -> Netlist.cell_id

val bw_endpoint_delay : t -> batch_workspace -> Netlist.cell_id -> int -> float
(** [bw_endpoint_delay t bw cid k] — endpoint delay of flop [cid] in
    lane [k]; [0.] for non-sequential cells, like [ws_endpoint_delay]. *)

val bw_stage_delay : batch_workspace -> Stage.t -> int -> float option

(** {2 Incremental re-propagation}

    For call sequences whose delay vectors differ in few cells — the
    post-silicon settle loop re-times one Lgate realisation under a
    handful of island supply assignments — the workspace keeps the
    previous delays and arrivals, seeds a levelized worklist with the
    cells whose delay changed, and re-propagates only their fan-out
    cones, pruning wherever a recomputed arrival is bitwise
    unchanged. *)

type inc_workspace
(** A {!workspace} plus the previous delay vector and the worklist
    buckets; do not share across domains. *)

val inc_workspace : t -> inc_workspace

val inc_ws : inc_workspace -> workspace
(** The underlying workspace holding the latest results — read it with
    the [ws_*] accessors. *)

val inc_invalidate : inc_workspace -> unit
(** Forget the cached arrivals; the next analysis runs a full pass.
    Call it if the arrivals were mutated externally. *)

val analyze_incremental_into : t -> inc_workspace -> delays:float array -> unit
(** Same observable semantics as {!analyze_into} (ideal clock) into
    [inc_ws], and bit-identical to a full pass: every bitwise delay
    change re-propagates through the same per-cell arithmetic and the
    endpoint reduction is shared code.  When the changed-cell set or
    the touched cone exceeds a quarter of the netlist, the pass falls
    back to one full forward pass — counted in
    [sta_full_fallbacks_total]; cells actually re-evaluated are counted
    in [sta_incremental_gates_total]. *)

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

val stage_delay : result -> Stage.t -> float option
(** Worst path delay captured by a stage, if it has endpoints. *)

val endpoints_of_stage : t -> Stage.t -> Netlist.cell_id list
(** Flops captured by [stage], in id order (precomputed at build). *)

val stage_endpoint_ids : t -> Stage.t -> Netlist.cell_id array
(** Array form of {!endpoints_of_stage} (fresh copy); lets hot loops
    iterate endpoints without consing. *)
