(** Across-field systematic Lgate variation (paper §4.1, Eq. 1-2).

    Systematic within-field variability is modelled as a second-order
    polynomial of the exposure-field coordinates,

    {[ f(x, y) = a x^2 + b y^2 + c x + d y + e xy + intercept ]}

    with coefficients scaled — as the paper scales the measured 130nm
    coefficients of Cain's thesis — so the maximum systematic deviation
    over the field equals a target fraction of nominal Lgate (±5.5% at
    the 65nm node).  The slow corner (largest Lgate) is the field's
    lower-left, matching Fig. 2. *)

type t = {
  a : float;
  b : float;
  c : float;
  d : float;
  e : float;
  intercept : float;
  field_mm : float;     (** exposure-field edge, 28 mm *)
  l_nominal_nm : float;
}

val default : t
(** 28 x 28 mm field, 65 nm nominal, calibrated to ±5.5%. *)

val create : l_nominal_nm:float -> max_dev_frac:float -> t
(** [create ~l_nominal_nm ~max_dev_frac] scales a raw polynomial (a
    diagonal bowl with curvature and a cross term) over a 28 mm field
    so that [max |f - l_nominal| = max_dev_frac * l_nominal] over the
    square region of the chip edge, 14 mm, so the chip map of Fig. 2
    spans the quoted ±5.5%. *)

val systematic_nm : t -> x_mm:float -> y_mm:float -> float
(** Systematic Lgate at a field coordinate, in nm (clamped to the
    field). *)

val systematic_map_into :
  t ->
  origin_x_mm:float ->
  origin_y_mm:float ->
  xs_um:float array ->
  ys_um:float array ->
  out:float array ->
  unit
(** [out.(i) <- systematic_nm t ~x_mm ~y_mm] at the field coordinate
    [(origin_x_mm + xs_um.(i) / 1000, origin_y_mm + ys_um.(i) / 1000)]
    of every cell — the whole-die systematic map, without allocating.
    Raises [Invalid_argument] if the arrays differ in length. *)

val deviation_frac : t -> x_mm:float -> y_mm:float -> float
(** (systematic - nominal) / nominal. *)

val extremes : t -> float * float
(** (min, max) systematic Lgate over the field (grid-sampled). *)

val render_map : t -> chip_mm:float -> string
(** ASCII rendering of the Lgate map over a [chip_mm]-sized chip at the
    field origin, 14 x 14 cells — the Fig. 2 reproduction. *)
