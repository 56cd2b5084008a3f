(** Gate-level logic simulation for switching-activity extraction —
    the ModelSim back-annotation step of the paper's power flow.

    The netlist is evaluated cycle by cycle: primary inputs are driven
    by a stimulus, combinational cells evaluate in levelized order
    using the exact boolean semantics of their {!Pvtol_stdcell.Kind},
    and flip-flops update on the (implicit) clock edge.  Output-net
    toggles are counted per cell. *)

open Pvtol_netlist

type stimulus = cycle:int -> input_index:int -> bool
(** Value of the i-th primary input (in [Netlist.inputs] order) at a
    cycle. *)

type activity = {
  cycles : int;
  toggles : int array;     (** per cell, output toggles over the run *)
  rates : float array;     (** toggles / cycle per cell *)
}

val run : ?cycles:int -> Netlist.t -> stimulus -> activity
(** Simulate (default 512 cycles).  Deterministic for a deterministic
    stimulus.  The combinational cells are flattened once into
    kind/pin arrays and evaluated without per-cycle allocation; the
    toggle counts equal those of a plain per-cell {!Pvtol_stdcell.Kind.eval}
    loop.  Raises [Invalid_argument] if a cell's pin count does not
    match its kind. *)

val random_stimulus : seed:int -> stimulus
(** Uniform random bits (per cycle and input, reproducible). *)

val trace_stimulus :
  Netlist.t -> instr_prefix:string -> words:Int32.t array list ->
  fallback:stimulus -> stimulus * int
(** Drive the inputs named [instr_prefix][k] from a per-cycle word
    trace (an ISS instruction stream): bit [k] of a cycle's word bundle.
    Every other input falls back to [fallback], and so does an
    [instr_prefix[k]] input whose [k] is not an integer or lies past
    the shortest bundle.  Returns the stimulus and the trace length in
    cycles; the trace repeats if the simulation runs longer. *)

val mean_rate : activity -> float
