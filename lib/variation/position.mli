(** Die position of the processor core on the exposure field.

    The paper studies how violations relax as the core moves from the
    chip's lower-left corner (point A, worst systematic corner of
    Fig. 2) toward the upper-right along the diagonal (points B, C, D).
    A position maps core-local placement coordinates (um) to field
    coordinates (mm). *)

type t = {
  label : string;
  origin_x_mm : float;  (** field coordinate of the core's (0,0) *)
  origin_y_mm : float;
}

val chip_mm : float
(** Chip edge length within the exposure field (14 mm, Fig. 2). *)

val at_xy : x_frac:float -> y_frac:float -> t
(** Core origin at an arbitrary point of the chip — the general form
    behind wafer-scale 2D sweeps.  [x_frac]/[y_frac] are fractions of
    the chip edge; nothing downstream (sampling, SSTA, scenario
    classification) assumes the die sits on the A-D diagonal.  The
    label encodes both fractions injectively, since keyed stages
    memoize per position label. *)

val at_fraction : ?label:string -> float -> t
(** Core origin at the given fraction of the chip diagonal
    (0 = lower-left corner, 1 = upper-right corner).  Equivalent to
    [at_xy ~x_frac:frac ~y_frac:frac] up to the label. *)

val x_frac : t -> float
val y_frac : t -> float
(** Origin back in chip-edge fractions. *)

val point_a : t
val point_b : t
val point_c : t
val point_d : t
(** The paper's four named positions: A at the corner (0.0), and B, C,
    D at increasing diagonal fractions (0.25, 0.55, 0.80) where the
    violation scenarios relax one stage at a time. *)

val named : t list

val to_field : t -> x_um:float -> y_um:float -> float * float
(** Field coordinates (mm) of a core-local placement point. *)
