(** Row legalization: snap cells into non-overlapping row/site
    positions with minimal displacement from the global placement
    (an abacus-style per-row packing with row-overflow balancing). *)

val run : ?padding:float -> Placement.t -> unit
(** Legalize in place.  [padding] (default 0) inflates every footprint
    by that fraction during packing, leaving distributed whitespace
    between cells — the ECO-space reservation that keeps later
    incremental insertions (level shifters) local.  Postconditions
    (checked by tests): every cell lies on a row center, within the
    core; per-row footprints do not overlap; per-row total width fits
    the row capacity. *)

val check : Placement.t -> (unit, string list) result
(** Verify the legality postconditions. *)
