(** Post-synthesis drive sizing.

    Commercial performance-driven flows first upsize to meet the clock,
    then recover area/power by downsizing every cell whose slack allows
    it — leaving all timing endpoints close to their constraint.  That
    "slack wall" is the precondition of the paper's Fig. 3 (all
    pipeline stages violate under variation, which requires each
    stage's nominal delay to sit near the clock period).

    Constraints are expressed per capture stage, mirroring synthesis
    path groups: endpoints captured by stage [s] must arrive by
    [clock *. frac s].  [recover] performs iterative greedy downsizing
    with a shared-slack guard and full STA verification between rounds;
    a round that breaks any stage constraint is rolled back and retried
    more conservatively.

    Rounds change only drive strengths, so each [recover] or
    [close_timing] call builds one timing graph ({!Sta.build}, one
    [wire_length] lookup per net) and re-times every later round's
    netlist with {!Sta.resize}. *)

open Pvtol_netlist

type report = {
  netlist : Netlist.t;        (** resized netlist (same topology/ids) *)
  clock : float;
  rounds : int;
  downsized : int;            (** number of drive-notch reductions *)
  area_before : float;
  area_after : float;
}

val recover :
  ?max_rounds:int ->
  ?guard:float ->
  ?rollback:bool ->
  ?frac:(Stage.t -> float) ->
  clock:float ->
  wire_length:(Netlist.net_id -> float) ->
  capture:(Netlist.cell -> Stage.t option) ->
  Netlist.t ->
  report
(** [frac] gives each stage's timing budget as a fraction of [clock]
    (default: 1.0 for every stage).  [guard] is the slack multiple a
    cell must keep over its estimated delay increase before it is
    downsized (default 10.0).  The returned netlist meets every stage
    constraint at the nominal corner, provided the input netlist did. *)

val balanced_fracs : Stage.t -> float
(** The stage budgets used for the paper's design point: execute at
    100% of the clock (the critical stage), decode 97%, write-back
    94%, fetch 90% — the near-critical profile Fig. 3 exhibits. *)

val close_timing :
  ?max_rounds:int ->
  ?frac:(Stage.t -> float) ->
  clock:float ->
  wire_length:(Netlist.net_id -> float) ->
  capture:(Netlist.cell -> Stage.t option) ->
  Netlist.t ->
  report
(** Timing closure: upsize every cell with negative slack against its
    stage budget, one drive notch per round, until all constraints are
    met (or drives saturate at X4).  Run before {!recover}; the
    combination reproduces the synthesis sequence "meet timing, then
    recover area". *)

val fit :
  ?frac:(Stage.t -> float) ->
  clock:float ->
  wire_length:(Netlist.net_id -> float) ->
  capture:(Netlist.cell -> Stage.t option) ->
  Netlist.t ->
  report
(** [close_timing] followed by [recover]; the final netlist sits just
    below each stage budget at the nominal corner. *)
