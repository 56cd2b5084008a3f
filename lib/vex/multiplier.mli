(** Multiplier generator: AND-gate partial products reduced on a Dadda
    schedule with a Kogge-Stone final stage.  This is the
    deepest combinational structure of the execute stage and, as in the
    paper's design, pins the global critical path there. *)

open Gen

val truncated : t -> width:int -> bus -> bus -> bus
(** Product truncated to [width] output bits (the VEX mul returns the
    low word). *)
