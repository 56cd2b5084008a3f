(** Standard-cell characterisation and the dual-Vdd cell library.

    Each cell is characterised at the nominal corner (low Vdd, nominal
    Lgate); {!Process} scale factors retarget delay and leakage to any
    (Vdd, Lgate) operating point, which is exactly how the paper's SDF
    rewriting flow injects variability. *)

type drive = X0 | X1 | X2 | X4
(** Drive strengths.  [X0] is the half-drive variant used by the
    area-recovery / downsizing pass that consumes positive slack after
    timing closure (mirroring what a commercial synthesis flow does,
    and producing the paper's "all stages near-critical" starting
    point). *)

type t = {
  kind : Kind.t;
  drive : drive;
  area : float;         (** um^2 *)
  input_cap : float;    (** fF, per input pin *)
  d0 : float;           (** intrinsic delay, ns, at nominal corner *)
  drive_res : float;    (** load-dependent delay slope, ns/fF *)
  e_internal : float;   (** internal energy per output toggle, fJ, at vdd_low *)
  leak : float;         (** leakage power, nW, at nominal corner *)
}

type library = {
  name : string;
  process : Process.t;
  cells : t list;
  wire_cap_per_um : float;    (** fF/um, for HPWL-based loads *)
  wire_delay_per_um : float;  (** ns/um, lumped linear wire delay *)
  clk_to_q : float;           (** DFF clock-to-output delay, ns *)
  setup : float;              (** DFF setup time, ns *)
}

val drive_of_name : string -> drive option

val cell_name : t -> string
(** ["NAND2_X1"]-style name, as used by the Liberty and netlist layers. *)

val default_library : library
(** The 65nm-class low-power dual-Vdd (1.0V / 1.2V) library the whole
    reproduction runs on. *)

val find : library -> Kind.t -> drive -> t
(** Raises [Not_found] if the library lacks the combination. *)

val find_by_name : library -> string -> t option

(** {2 Operating-point evaluation} *)

val delay : library -> t -> vdd:float -> lgate_nm:float -> load_ff:float -> float
(** Pin-to-output delay in ns: [(d0 + drive_res * load) * delay_scale]. *)

val leakage_nw : library -> t -> vdd:float -> lgate_nm:float -> float
(** Leakage power in nW at the operating point. *)

val switching_energy_fj : library -> t -> vdd:float -> load_ff:float -> float
(** Energy per output toggle in fJ: internal + 0.5 * C_load * Vdd^2
    (with the internal part rescaled by (Vdd/vdd_low)^2). *)
