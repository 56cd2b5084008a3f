(** Clock-tree synthesis over the placed flops.

    A recursive geometric-bisection tree (means-and-medians): the flop
    set splits at the median of its longer bounding-box axis until
    clusters are small, a buffer drives each internal node, and every
    flop's insertion delay accumulates buffer and wire delays down its
    branch.  The resulting skew map feeds the skew-aware STA — both to
    check that the ideal-clock assumption of the main flow is harmless
    (CTS skew is a small fraction of the cycle) and to support the
    clock-skew experiments around the paper's §1 retiming discussion. *)

open Pvtol_netlist

type t = {
  insertion_delay : (Netlist.cell_id * float) list;  (** per flop, ns *)
  offsets : float array;
      (** dense per-cell clock-arrival offsets (insertion delay minus
          the earliest leaf's), indexed by cell id; 0 for cells the
          tree does not serve.  Built once at synthesis so per-die
          settle loops get O(1) lookups. *)
  skew : float;            (** max - min insertion delay, ns *)
  n_buffers : int;
  wirelength : float;      (** total tree wirelength, um *)
  levels : int;
}

val synthesize : Pvtol_place.Placement.t -> flops:Netlist.cell_id array -> t
(** Leaf clusters of at most 16 flops. *)

val skew_of : t -> (Netlist.cell_id -> float)
(** Per-flop arrival offset of the clock edge relative to the earliest
    flop (>= 0), suitable for {!Sta.analyze}'s [skew].  Backed by the
    precomputed {!t.offsets} array: each lookup is a bounds check and
    one array read, safe for hot per-die loops. *)
