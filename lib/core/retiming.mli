(** Clock-skew pipeline retiming bound (the ReCycle-style alternative
    of the paper's §1 / reference [1]).

    With per-stage clock-skew adjustment, a slow stage can borrow time
    from faster neighbours, but every feedback loop still bounds the
    cycle time by its average stage delay — and a single-stage loop
    (the execute stage's forwarding path) gets no borrowing at all.
    The paper's argument is that under large spatially-correlated
    systematic variation all stages slow down together, so there is
    nothing to borrow; this module lets the experiments quantify that
    claim on the reproduced design. *)

open Pvtol_netlist

type result = {
  t_unretimed : float;  (** max stage delay *)
  t_retimed : float;    (** best cycle time with optimal skews *)
  gain : float;         (** 1 - t_retimed / t_unretimed *)
  binding_loop : Stage.t list;
}

val bound : delay_of:(Stage.t -> float option) -> result
(** Optimal-skew cycle time: [max] over loops of the loop's average
    stage delay (stages without a measured delay are skipped). *)
