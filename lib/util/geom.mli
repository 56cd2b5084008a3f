(** Planar geometry primitives used by the floorplan, placement and
    voltage-island layers.  All coordinates are in micrometres. *)

type point = { x : float; y : float }

type rect = { llx : float; lly : float; urx : float; ury : float }
(** Axis-aligned rectangle, lower-left / upper-right corners. *)

val point : float -> float -> point

val rect : llx:float -> lly:float -> urx:float -> ury:float -> rect
(** Raises [Invalid_argument] if the corners are not ordered. *)

val width : rect -> float
val height : rect -> float
val area : rect -> float
val center : rect -> point
val contains : rect -> point -> bool
(** Closed on the lower/left edges, open on the upper/right edges, so a
    partition of a region assigns each point to exactly one part. *)

val subsumes : rect -> rect -> bool
(** [subsumes outer inner] is true when [inner] lies within [outer]. *)

val dist : point -> point -> float
