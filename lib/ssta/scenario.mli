(** Timing-violation scenarios (paper §4.4).

    A stage violates at a die position when the 3-sigma point of its
    Monte-Carlo worst-delay distribution exceeds the nominal clock
    period.  Scenarios are indexed by the number of violating stages:
    at point A all of execute/decode/write-back violate (scenario 3),
    at B two, at C one, from D on none.  Each scenario is compensated
    by raising one more voltage island, so the scenario index is
    exactly the number of islands driven at high Vdd. *)

open Pvtol_netlist

type stage_slack = {
  stage : Stage.t;
  three_sigma : float;   (** 3-sigma worst delay at this position *)
  slack : float;         (** clock - three_sigma; negative = violation *)
  violates : bool;
}

type t = {
  position : Pvtol_variation.Position.t;
  clock : float;
  stage_slacks : stage_slack list;  (** decode/execute/write-back *)
  violating : Stage.t list;          (** ordered worst-first *)
  index : int;                        (** number of violating stages *)
}

val analyzed_stages : Stage.t list
(** The capture stages whose violation defines a scenario: Decode,
    Execute and Writeback, the ladder of §4.4.  Fetch is excluded, as
    in the paper (no memory model behind it).  Every layer that counts
    or compensates violating stages reads this list. *)

val classify : clock:float -> Monte_carlo.result -> t
(** Classify one position's Monte-Carlo result.  Fetch is excluded, as
    in the paper (no memory model behind it). *)

val pp : Format.formatter -> t -> unit
