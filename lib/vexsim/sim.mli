(** Instruction-set simulator for the VEX-like VLIW.

    Executes one bundle per cycle with VLIW semantics (all operand
    reads before any write; a taken branch in slot 0 redirects the next
    bundle).  Produces both architectural results and the per-cycle
    instruction-word trace that drives the gate-level switching-activity
    simulation — the ModelSim step of the paper's power flow. *)

type stats = {
  cycles : int;
  ops_executed : int;          (** non-nop operations *)
  slot_active : int array;     (** per slot, cycles with a non-nop op *)
  mul_ops : int;
  mem_ops : int;
  branches_taken : int;
}

type t

val create : Isa.bundle array -> t
(** Fresh machine: registers and 4096 words of data memory zeroed. *)

val set_reg : t -> int -> int -> unit
val get_reg : t -> int -> int
val store : t -> int -> int -> unit
(** [store t addr v] writes data memory (word-addressed). *)

val load : t -> int -> int

val run : ?max_cycles:int -> t -> stats
(** Execute until the PC falls off the end of the program or
    [max_cycles] (default 100_000) elapse.  Values wrap at 32 bits. *)

val trace : t -> Int32.t array list
(** Per-cycle instruction words (slot order) of the completed run,
    oldest first.  Empty before {!run}. *)

val ipc : stats -> float
