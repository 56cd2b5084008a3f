(** Gate-level logic simulation for switching-activity extraction —
    the ModelSim back-annotation step of the paper's power flow.

    The netlist is evaluated cycle by cycle: primary inputs are driven
    by a stimulus, combinational cells evaluate in levelized order
    using the exact boolean semantics of their {!Pvtol_stdcell.Kind},
    and flip-flops update on the (implicit) clock edge.  Output-net
    toggles are counted per cell.  A netlist that only adds buffers to
    a simulated one needs no second run ({!extend}). *)

open Pvtol_netlist

type stimulus = cycle:int -> input_index:int -> bool
(** Value of the i-th primary input (in [Netlist.inputs] order) at a
    cycle. *)

type activity = {
  cycles : int;
  toggles : int array;     (** per cell, output toggles over the run *)
  rates : float array;     (** toggles / cycle per cell *)
  final_edge : bool array;
      (** per cell, whether its output changed on the run's final clock
          edge (flip-flops only; no evaluation follows that edge) *)
}

val run : ?cycles:int -> Netlist.t -> stimulus -> activity
(** Simulate (default 512 cycles).  Deterministic for a deterministic
    stimulus.  The combinational cells are flattened once into
    kind/pin arrays and evaluated without per-cycle allocation; the
    toggle counts equal those of a plain per-cell {!Pvtol_stdcell.Kind.eval}
    loop.  Each call counts one [gatesim_runs_total].  Raises
    [Invalid_argument] if a cell's pin count does not match its kind. *)

val extend : activity -> base:Netlist.t -> Netlist.t -> activity
(** [extend a ~base nl] equals [run] on [nl] under the stimulus and
    cycles that gave [a] on [base], without simulating.  [nl] must be
    [base] (same kinds, output nets and inputs; drives may differ) with
    [Buf]/[Ls] cells appended from base cells' nets onto new nets, each
    base pin reading its base net or a buffer on it; otherwise raises
    [Invalid_argument].  Base cells keep their counts; a buffer takes
    its driver's, minus one if the driver is a flop that changed on the
    final edge. *)

val random_stimulus : seed:int -> stimulus
(** Uniform random bits (per cycle and input, reproducible). *)

val trace_stimulus :
  Netlist.t -> words:Int32.t array list -> fallback:stimulus -> stimulus
(** Drive the inputs named [instr[k]] from a per-cycle word trace (an
    ISS instruction stream): bit [k] of a cycle's word bundle.  Every
    other input falls back to [fallback], and so does an [instr[k]]
    input whose [k] is not an integer or lies past the shortest bundle.
    The trace repeats if the simulation runs longer than it. *)

val mean_rate : activity -> float
