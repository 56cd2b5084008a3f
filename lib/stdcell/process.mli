(** Process / technology parameters and the analytic device models of
    the paper's §4.1:

    - Orshansky alpha-power delay law (Eq. 3):
      [D ~ Lgate^1.5 * Vdd / (Vdd - Vth)^alpha]
    - DIBL threshold-voltage model (Eq. 4):
      [Vth_eff = Vth0 - Vdd * exp (-alpha_dibl * Leff)]

    All delay and leakage figures of the cell library are expressed as
    *scale factors* relative to the nominal corner (Lgate = l_nominal,
    Vdd = vdd_low), so a single characterisation serves every
    (Lgate, Vdd) operating point. *)

type t = {
  l_nominal_nm : float;  (** Nominal effective gate length, 65 nm. *)
  vdd_low : float;       (** Nominal supply, 1.0 V. *)
  vdd_high : float;      (** Boosted supply, 1.2 V. *)
  vth0 : float;
      (** Long-channel threshold voltage.  The paper's Eq. 4 quotes
          0.22 V; the default library uses 0.32 V, typical of the
          *low-power* (high-Vth) 65nm flavour the paper's STM library
          is ("our technology libraries are optimized for low power"),
          which is also what makes the 1.0 -> 1.2 V boost worth ~19%
          delay rather than ~12%. *)
  alpha : float;         (** Velocity-saturation exponent, 1.3. *)
  alpha_dibl : float;    (** DIBL coefficient, 1/nm (see note below). *)
  subthreshold_swing : float;
      (** Effective exponential slope n*vT (V) for the leakage model. *)
}

val default : t
(** 65nm low-power corner used throughout the reproduction.  The paper
    quotes alpha_dibl = 0.15/nm, which makes the DIBL term numerically
    negligible (~60 uV) at Leff = 65 nm; [default] uses 0.08/nm so that
    Lgate visibly couples into Vth and leakage, matching the paper's
    stated intent ("an increase of Lgate causes an increase of Vth,
    with further delay and leakage power implications"). *)

val paper_literal : t
(** Same corner with alpha_dibl = 0.15/nm exactly as printed. *)

val vth_eff : t -> vdd:float -> lgate_nm:float -> float
(** Eq. 4. *)

val delay_scale : t -> vdd:float -> lgate_nm:float -> float
(** Eq. 3, normalized to 1.0 at (vdd_low, l_nominal_nm).  Values < 1
    mean the cell got faster (e.g. under vdd_high).  For sparse
    callers; a loop over every cell goes through {!scale_into}, which
    [~base] of ones makes bit for bit this function. *)

val scale_into :
  t -> vdd:float -> base:float array -> lgates:float array -> out:float array ->
  unit
(** One die's delays at one supply, the exact per-die array kernel of
    Eq. 3: for every cell [i],
    [out.(i) <- base.(i) *. delay_scale t ~vdd ~lgate_nm:lgates.(i)],
    bit for bit, with the normalising corner evaluated once per call
    (three transcendental calls per cell).  [out] may be [lgates] or
    [base].  Allocates nothing.  Raises [Invalid_argument] if the
    arrays differ in length. *)

val leakage_scale : t -> vdd:float -> lgate_nm:float -> float
(** Subthreshold-leakage *power* scale relative to the nominal corner:
    [I0 * exp((Vth_nom - Vth)/swing) * (Vdd/vdd_low)^2].  The quadratic
    Vdd term folds the current increase and the P = I*Vdd product. *)

val speedup_high_vdd : t -> float
(** Convenience: delay ratio low-Vdd/high-Vdd at nominal Lgate — the
    per-cell performance boost bought by raising an island to 1.2V. *)

(** {2 Adaptive body bias (the alternative of the paper's §1)}

    Forward body bias lowers the effective threshold by
    [body_factor * vbb], speeding the gate up at an exponential leakage
    cost — the comparison (after the paper's reference [13]) that
    motivates choosing supply adaptation: "AVS has a much milder impact
    on leakage and is a more power-efficient and thermally compatible
    solution than ABB". *)

val body_factor : float
(** Vth shift per volt of forward body bias (~0.12 V/V at 65nm). *)

val abb_delay_scale : t -> vbb:float -> lgate_nm:float -> float
(** Delay multiplier at nominal supply with forward body bias [vbb]
    (positive = forward). *)

val abb_leakage_scale : t -> vbb:float -> lgate_nm:float -> float
(** Leakage-power multiplier for the same bias. *)

val abb_for_speedup : t -> speedup:float -> float
(** Forward bias needed to match a target delay-ratio speed-up at the
    nominal corner (bisection; raises [Invalid_argument] if even 1V of
    forward bias is not enough). *)
