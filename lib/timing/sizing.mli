(** Post-synthesis drive sizing.

    Commercial performance-driven flows first upsize to meet the clock,
    then recover area/power by downsizing every cell whose slack allows
    it — leaving all timing endpoints close to their constraint.  That
    "slack wall" is the precondition of the paper's Fig. 3 (all
    pipeline stages violate under variation, which requires each
    stage's nominal delay to sit near the clock period).

    Constraints are expressed per capture stage, mirroring synthesis
    path groups: endpoints captured by stage [s] must arrive by
    [clock *. balanced_fracs s] at the nominal corner.

    A sizing pass times one netlist graph whose cell masters change
    from round to round.  It takes the graph of its input netlist
    ({!Sta.build} of it, or the graph an earlier pass returned) and
    re-drives one {!Sta.view} of it in place: each round runs a forward
    and a backward pass on the committed masters, stages the round's
    re-drives from that state, and commits them, which re-evaluates
    only the loads and delays they touch.  {!fit}'s passes share one
    view.  No pass builds a graph or a netlist per round; the sized
    netlist is materialised once, and the report carries its graph
    ({!Sta.freeze}) for the next pass or for later analyses. *)

open Pvtol_netlist

type report = {
  sta : Sta.t;
      (** timing graph of the resized netlist ([Sta.netlist sta]: same
          topology and ids as the input, only drive strengths differ) *)
  clock : float;
  rounds : int;
  downsized : int;
      (** number of drive-notch changes (upsizes for {!close_timing},
          both directions for {!fit}) *)
  area_before : float;
  area_after : float;
}

val balanced_fracs : Stage.t -> float
(** The stage budgets, as fractions of the clock: execute at 100% of
    the clock (the critical stage), decode 96.5%, write-back 93%, fetch
    88% — the near-critical profile Fig. 3 exhibits. *)

val close_timing : clock:float -> Sta.t -> report
(** Timing closure: upsize the worst-slack eighth (at least 50) of the
    cells with negative slack against their stage budget, one drive
    notch per round, until every budget is met, no violating cell can
    grow (drives saturate at X4), or 60 rounds have run. *)

val fit : clock:float -> Sta.t -> report
(** The synthesis sequence "meet timing, then recover area": three
    times {!close_timing} followed by a greedy downsizing pass, then a
    final {!close_timing}.  A downsizing pass drops a cell one notch
    when its slack exceeds a guard multiple (6, then 3, then 2) of its
    estimated delay increase, for at most 16 rounds, without verifying
    a round against the budgets: it may overshoot them, and the
    closure pass that follows repairs that.  The final netlist sits
    just below each stage budget, and meets them all unless that last
    closure saturates. *)
