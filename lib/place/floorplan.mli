(** Core floorplan: a rectangular standard-cell region organised in
    rows, sized from the netlist area and a target row utilization
    (the paper reports "row utilization of about 70%"). *)

type t = {
  core : Pvtol_util.Geom.rect;   (** local coordinates, origin (0,0) *)
  row_height : float;            (** um *)
  site_width : float;            (** um *)
  n_rows : int;
  utilization : float;           (** target, 0-1 *)
}

val create : ?utilization:float -> cell_area:float -> unit -> t
(** Square-ish floorplan of 1.8 um rows and 0.2 um sites whose row
    capacity is [cell_area / utilization] (default utilization
    0.70). *)

val row_y : t -> int -> float
(** Lower edge of a row. *)

val row_of_y : t -> float -> int
(** Clamped row index containing the ordinate. *)

val row_capacity : t -> float
(** Usable width of a row in um. *)
