(** Gate-level netlist representation.

    A netlist is a set of cells (each a single-output standard cell)
    connected by nets.  Cells carry a pipeline-stage tag and a
    functional-unit name, which the SSTA, power and voltage-island
    layers use to produce the paper's per-stage breakdowns.

    The structure is frozen after construction through {!Builder};
    cell and net identifiers are dense integers suitable as array
    indices, which is what keeps whole-netlist Monte Carlo sweeps fast
    enough to run hundreds of samples per experiment. *)

type cell_id = int
type net_id = int

type cell = {
  id : cell_id;
  name : string;
  cell : Pvtol_stdcell.Cell.t;
  stage : Stage.t;
  unit_name : string;
  fanins : net_id array;   (** one entry per input pin, pin order *)
  fanout : net_id;         (** the single output net *)
}

type net = {
  net_id : net_id;
  net_name : string;
  driver : cell_id option;      (** [None] for primary inputs *)
  sinks : (cell_id * int) array;  (** (cell, input-pin index) *)
  is_output : bool;             (** net is a primary output *)
}

type t = {
  design_name : string;
  lib : Pvtol_stdcell.Cell.library;
  cells : cell array;
  nets : net array;
  inputs : net_id array;
  outputs : net_id array;
}

(** {2 Construction} *)

module Builder : sig
  type netlist := t
  type t

  val create : ?design_name:string -> Pvtol_stdcell.Cell.library -> t

  val input : t -> string -> net_id
  (** Declare a primary input; returns its net. *)

  val add :
    t ->
    ?drive:Pvtol_stdcell.Cell.drive ->
    ?name:string ->
    stage:Stage.t ->
    unit_name:string ->
    Pvtol_stdcell.Kind.t ->
    net_id array ->
    net_id
  (** [add b kind fanins] instantiates a cell and returns its output
      net.  Default drive X1; a name is generated when omitted.
      Raises [Invalid_argument] on arity mismatch or undeclared nets. *)

  val output : t -> net_id -> string -> unit
  (** Mark a net as a primary output (renaming it). *)

  val placeholder : t -> string -> net_id
  (** Declare a net whose driver will be connected later; used to close
      sequential feedback loops (e.g. a register's hold mux consumes
      the flop's Q before the D-side logic exists).  Every use of the
      placeholder must be redirected to a real net via {!rewire} before
      {!freeze}, which otherwise fails with an undriven-net error. *)

  val rewire : t -> cell:cell_id -> pin:int -> net_id -> unit
  (** [rewire b ~cell ~pin n] disconnects input [pin] of [cell] from its
      current net and reconnects it to [n]. *)

  val driver_of : t -> net_id -> cell_id option
  (** The cell currently driving a net, if any. *)

  val merge : t -> placeholder:net_id -> net_id -> unit
  (** [merge b ~placeholder real] redirects every current consumer of
      [placeholder] to [real], leaving [placeholder] dead (no driver,
      no sinks).  Dead placeholders are tolerated by {!freeze} and
      invisible to timing and power analysis. *)

  val cell_count : t -> int

  val freeze : t -> netlist
  (** Validate and freeze.  Raises [Failure] if any net other than a
      primary input is undriven, or if the combinational core (the
      graph excluding flip-flop outputs) contains a cycle. *)
end

(** {2 Queries} *)

val cell_count : t -> int
val net_count : t -> int

val area : t -> float
(** Total standard-cell area, um^2. *)

val area_of_stage : t -> Stage.t -> float

val flops : t -> cell array
(** All sequential cells, in id order. *)

val is_comb : cell -> bool

val stats_by_stage : t -> (Stage.t * int * float) list
(** (stage, cell count, area) for each stage present in the design. *)

val pp_summary : Format.formatter -> t -> unit

val remap_cells : t -> (cell -> Pvtol_stdcell.Cell.t) -> t
(** [remap_cells t f] returns a netlist with identical topology where
    each cell's library characterisation is replaced by [f cell]
    (same kind required — used by the drive-sizing pass).
    Raises [Invalid_argument] if [f] changes a cell's kind. *)

(** {2 Validation} *)

val check : t -> (unit, string list) result
(** Re-run the structural invariants on a frozen netlist: dense ids,
    single driver per net, consistent pin back-references, acyclic
    combinational core. *)
