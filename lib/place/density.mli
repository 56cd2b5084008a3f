(** Cell-density map over the core area.

    Used by the global placer's spreading step and by the
    voltage-island generator, which (per the paper, §4.5) assesses
    "the most promising side of the processor core floorplan (upper,
    lower, left or right) to start selecting candidate cells for
    high-Vdd" based on cell-density considerations. *)

type t = {
  nx : int;
  ny : int;
  bin_w : float;
  bin_h : float;
  occupied : float array;  (** row-major [ny * nx], um^2 of cells *)
}

val compute : Placement.t -> t
(** A 32 x 32 grid. *)

val clamp_bin : int -> int -> int
(** [clamp_bin n b] is bin index [b] clamped into [[0, n-1]]: a position
    outside the grid counts in its edge bin. *)

val bin_area : t -> float

type side = Left | Right | Bottom | Top

val side_name : side -> string
