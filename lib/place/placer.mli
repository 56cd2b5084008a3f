(** Wirelength-driven global placement.

    A force-directed scheme standing in for the paper's Physical
    Compiler coarse placement: cells iteratively move toward the
    centroid of their incident nets (pulling connected logic together)
    while a density-diffusion step pushes cells out of overfull bins.
    The result is the "performance pre-optimized placement" the
    methodology takes as input, in which cells of different pipeline
    stages end up distributed and interleaved across the floorplan —
    the property that motivates the paper's proximity-based (rather
    than logic-based) island generation. *)

open Pvtol_netlist

val place :
  ?iterations:int -> ?seed:int -> ?padding:float ->
  Netlist.t -> Floorplan.t ->
  Placement.t
(** Global placement followed by row legalization (see {!Legalize};
    [padding] reserves distributed ECO whitespace).  Each iteration
    moves a cell 0.6 of the way to its nets' centroid.  Defaults: 48
    iterations, seed 1, no padding.  Deterministic. *)

val global_only :
  ?iterations:int -> ?seed:int -> Netlist.t -> Floorplan.t ->
  Placement.t
(** The force-directed phase alone, without legalization (useful for
    inspecting the spreading behaviour and in tests). *)
