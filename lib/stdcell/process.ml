type t = {
  l_nominal_nm : float;
  vdd_low : float;
  vdd_high : float;
  vth0 : float;
  alpha : float;
  alpha_dibl : float;
  subthreshold_swing : float;
}

let default =
  {
    l_nominal_nm = 65.0;
    vdd_low = 1.0;
    vdd_high = 1.2;
    vth0 = 0.32;
    alpha = 1.3;
    alpha_dibl = 0.08;
    subthreshold_swing = 0.035;
  }

let paper_literal = { default with alpha_dibl = 0.15 }

let[@inline] vth_eff t ~vdd ~lgate_nm =
  t.vth0 -. (vdd *. exp (-.t.alpha_dibl *. lgate_nm))

(* Eq. 3 given the two supply-independent factors of a gate length,
   [len = lgate ** 1.5] and [dibl = exp (-alpha_dibl * lgate)]: the one
   copy of the expression, so the array kernel below and the scalar
   path agree bit for bit.  [@inline] so the array kernel
   evaluates the alpha-power law in registers: a float returned by an
   out-of-line call is boxed. *)
let[@inline] raw_delay_of t ~vdd ~len ~dibl =
  let vth = t.vth0 -. (vdd *. dibl) in
  len *. vdd /. ((vdd -. vth) ** t.alpha)

let[@inline] raw_delay t ~vdd ~lgate_nm =
  raw_delay_of t ~vdd ~len:(lgate_nm ** 1.5)
    ~dibl:(exp (-.t.alpha_dibl *. lgate_nm))

(* The normalising corner is constant per process.  The scalar
   [delay_scale] re-evaluates it on every call, three transcendental
   calls; [scale_into] once per array, so dense per-cell loops go
   through [scale_into]: the census's exact low supply, the node values
   of every [Sampler] fit (on a unit base), the corner check's delay
   vectors ([Slicing.corner_check]), the analytic SSTA's per-cell
   scales and the importance sampler's tilt base.  The scalar is left
   to sparse callers.  [@inline] so that [scale_into] keeps it
   unboxed. *)
let[@inline] nominal_raw_delay t =
  raw_delay t ~vdd:t.vdd_low ~lgate_nm:t.l_nominal_nm

let delay_scale t ~vdd ~lgate_nm =
  raw_delay t ~vdd ~lgate_nm /. nominal_raw_delay t

let scale_into t ~vdd ~base ~lgates ~out =
  let n = Array.length base in
  if Array.length lgates <> n || Array.length out <> n then
    invalid_arg "Process.scale_into: array lengths differ";
  let nominal = nominal_raw_delay t in
  (* Unsafe accesses are sound: every array was checked to length [n]. *)
  for i = 0 to n - 1 do
    let lgate_nm = Array.unsafe_get lgates i in
    let len = lgate_nm ** 1.5 and dibl = exp (-.t.alpha_dibl *. lgate_nm) in
    Array.unsafe_set out i
      (Array.unsafe_get base i *. (raw_delay_of t ~vdd ~len ~dibl /. nominal))
  done

let leakage_scale t ~vdd ~lgate_nm =
  let vth = vth_eff t ~vdd ~lgate_nm in
  let vth_nom = vth_eff t ~vdd:t.vdd_low ~lgate_nm:t.l_nominal_nm in
  exp ((vth_nom -. vth) /. t.subthreshold_swing) *. ((vdd /. t.vdd_low) ** 2.0)

let speedup_high_vdd t =
  delay_scale t ~vdd:t.vdd_low ~lgate_nm:t.l_nominal_nm
  /. delay_scale t ~vdd:t.vdd_high ~lgate_nm:t.l_nominal_nm

(* --- adaptive body bias --- *)

let body_factor = 0.12

let raw_delay_vth t ~vdd ~lgate_nm ~dvth =
  let vth = vth_eff t ~vdd ~lgate_nm +. dvth in
  (lgate_nm ** 1.5) *. vdd /. ((vdd -. vth) ** t.alpha)

let abb_delay_scale t ~vbb ~lgate_nm =
  raw_delay_vth t ~vdd:t.vdd_low ~lgate_nm ~dvth:(-.body_factor *. vbb)
  /. nominal_raw_delay t

let abb_leakage_scale t ~vbb ~lgate_nm =
  let dvth = -.body_factor *. vbb in
  let vth = vth_eff t ~vdd:t.vdd_low ~lgate_nm +. dvth in
  let vth_nom = vth_eff t ~vdd:t.vdd_low ~lgate_nm:t.l_nominal_nm in
  exp ((vth_nom -. vth) /. t.subthreshold_swing)

let abb_for_speedup t ~speedup =
  assert (speedup >= 1.0);
  let target = 1.0 /. speedup in
  let at vbb = abb_delay_scale t ~vbb ~lgate_nm:t.l_nominal_nm in
  if at 1.0 > target then
    invalid_arg "abb_for_speedup: target beyond 1V forward bias";
  let lo = ref 0.0 and hi = ref 1.0 in
  for _ = 1 to 60 do
    let mid = (!lo +. !hi) /. 2.0 in
    if at mid > target then lo := mid else hi := mid
  done;
  (!lo +. !hi) /. 2.0
