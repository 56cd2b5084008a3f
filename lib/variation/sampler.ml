module Process = Pvtol_stdcell.Process
module Placement = Pvtol_place.Placement
module Srng = Pvtol_util.Srng

type t = {
  field : Field.t;
  process : Process.t;
  sigma_rnd_nm : float;
}

let create ?(three_sigma_rnd_frac = 0.065) () =
  let process = Process.default in
  {
    field = Field.default;
    process;
    sigma_rnd_nm = three_sigma_rnd_frac /. 3.0 *. process.Process.l_nominal_nm;
  }

let systematic_lgates_into t (p : Placement.t) (pos : Position.t) ~out =
  Field.systematic_map_into t.field ~origin_x_mm:pos.Position.origin_x_mm
    ~origin_y_mm:pos.Position.origin_y_mm ~xs_um:p.Placement.xs
    ~ys_um:p.Placement.ys ~out

let systematic_lgates t (p : Placement.t) pos =
  let out = Array.make (Array.length p.Placement.xs) 0.0 in
  systematic_lgates_into t p pos ~out;
  out

let sample_lgates t ~systematic ~raw rng out =
  let n = Array.length systematic in
  if Array.length out <> n || out == systematic then
    invalid_arg "Sampler.sample_lgates: out must be a distinct array of the \
                 systematic's length";
  (* [fill_gaussians] is bit-identical to [n] successive [gaussian]
     calls, so this is the per-cell [systematic + sigma * gaussian]
     loop, and leaves [rng] in the same state. *)
  Srng.fill_gaussians rng out ~pos:0 ~len:n;
  raw out;
  let sigma = t.sigma_rnd_nm in
  for i = 0 to n - 1 do
    Array.unsafe_set out i
      (Array.unsafe_get systematic i +. (sigma *. Array.unsafe_get out i))
  done

let shifted_systematic t ~systematic ~cells ~dir ~theta ~out =
  assert (Array.length out = Array.length systematic);
  assert (Array.length cells = Array.length dir);
  Array.blit systematic 0 out 0 (Array.length systematic);
  for k = 0 to Array.length cells - 1 do
    let i = cells.(k) in
    out.(i) <- out.(i) +. (t.sigma_rnd_nm *. theta *. dir.(k))
  done

(* ------------------------------------------------------------------ *)
(* Fitted scale path.

   [Process.delay_scale] costs an [exp] and two [( ** )] per cell and
   supply, and once the supply is fixed it is a smooth function of
   Lgate alone.  Both users of the scale model in bulk — Monte Carlo's
   lanes and a post-silicon die's cells — replace it with a [fit]: a
   window [[lo, hi]] of Lgate and one degree-12 Chebyshev interpolant
   per supply over it, evaluated by Horner's rule.  The nearest complex
   singularity of the alpha-power expression is dozens of half-widths
   away, so the Chebyshev coefficients decay by ~10x per degree and
   the fit agrees with the exact model to a few 1e-15..1e-14 relative.
   One routine ([refit]) builds every fit: the window's Chebyshev nodes,
   the exact array kernel [Process.scale_into] on a unit base at each
   supply, and the conversion to monomial coefficients. *)

let poly_degree = 12

(* The scratch of [refit]: the Chebyshev nodes on [-1, 1], the cosine
   table of the transform, the node values, the Chebyshev coefficients
   and three rows of the monomial conversion, plus the process, its two
   supplies (boxed in this mixed record so that passing them to
   [Process] allocates nothing), a unit base and the window's nodes in
   nm. *)
type fit_work = {
  process : Process.t;
  vdd_low : float;
  vdd_high : float;
  w_nodes : float array;
  w_cos : float array;  (* (degree + 1) x (degree + 1), row k = degree k *)
  w_fx : float array;
  w_cheb : float array;
  w_tprev : float array;
  w_tcur : float array;
  w_tnext : float array;
  ones : float array;
  node_lg : float array;
}

let fit_work (t : t) =
  let n = poly_degree + 1 in
  {
    process = t.process;
    vdd_low = t.process.Process.vdd_low;
    vdd_high = t.process.Process.vdd_high;
    w_nodes =
      Array.init n (fun j ->
          cos (Float.pi *. (float_of_int j +. 0.5) /. float_of_int n));
    w_cos =
      Array.init (n * n) (fun kj ->
          let k = kj / n and j = kj mod n in
          cos
            (Float.pi *. float_of_int k
            *. (float_of_int j +. 0.5)
            /. float_of_int n));
    w_fx = Array.make n 0.0;
    w_cheb = Array.make n 0.0;
    w_tprev = Array.make n 0.0;
    w_tcur = Array.make n 0.0;
    w_tnext = Array.make n 0.0;
    ones = Array.make n 1.0;
    node_lg = Array.make n 0.0;
  }

type fit = {
  window : float array;  (* [| lo; hi |]: a float array, so a refit stores
                            the window without allocating *)
  low_mono : float array;  (* monomial coefficients in u = scaled Lgate *)
  high_mono : float array;
}

let fit_create () =
  {
    window = [| nan; nan |];
    low_mono = Array.make (poly_degree + 1) 0.0;
    high_mono = Array.make (poly_degree + 1) 0.0;
  }

(* Chebyshev interpolation of the node values [w.w_fx] (the function at
   [lo + (hi - lo) (1 + w_nodes.(j)) / 2], the [degree + 1] Chebyshev
   nodes of [lo, hi]), converted to monomial coefficients in
   u = (2x - lo - hi)/(hi - lo) and written into [mono].  The
   conversion loses ~2^degree worth of conditioning in the worst case,
   but the coefficients decay geometrically here, so the observed
   end-to-end error stays at a few ULPs (pinned by the tests).
   Allocates nothing. *)
let mono_of_nodes w ~mono =
  let n = Array.length w.w_fx in
  let degree = n - 1 in
  let c = w.w_cheb and fx = w.w_fx in
  for k = 0 to n - 1 do
    let s = ref 0.0 in
    for j = 0 to n - 1 do
      s := !s +. (fx.(j) *. w.w_cos.((k * n) + j))
    done;
    c.(k) <- 2.0 /. float_of_int n *. !s
  done;
  c.(0) <- c.(0) /. 2.0;
  let tprev = w.w_tprev and tcur = w.w_tcur and tnext = w.w_tnext in
  Array.fill mono 0 n 0.0;
  Array.fill tprev 0 n 0.0;
  Array.fill tcur 0 n 0.0;
  tprev.(0) <- 1.0;
  mono.(0) <- c.(0);
  if n > 1 then begin
    tcur.(1) <- 1.0;
    for i = 0 to n - 1 do
      mono.(i) <- mono.(i) +. (c.(1) *. tcur.(i))
    done;
    for k = 2 to degree do
      Array.fill tnext 0 n 0.0;
      for i = 0 to n - 2 do
        tnext.(i + 1) <- 2.0 *. tcur.(i)
      done;
      for i = 0 to n - 1 do
        tnext.(i) <- tnext.(i) -. tprev.(i)
      done;
      Array.blit tcur 0 tprev 0 n;
      Array.blit tnext 0 tcur 0 n;
      for i = 0 to n - 1 do
        mono.(i) <- mono.(i) +. (c.(k) *. tcur.(i))
      done
    done
  end

(* [vdd]'s delay scale interpolated over [f]'s window, into [mono]. *)
let fit_row w f ~vdd ~mono =
  let lo = f.window.(0) and hi = f.window.(1) in
  let half = (hi -. lo) /. 2.0 and mid = (lo +. hi) /. 2.0 in
  for j = 0 to poly_degree do
    w.node_lg.(j) <- mid +. (half *. w.w_nodes.(j))
  done;
  Process.scale_into w.process ~vdd ~base:w.ones ~lgates:w.node_lg ~out:w.w_fx;
  mono_of_nodes w ~mono

(* Refit [f]'s rows over its window [[lo, hi]]: the high supply
   always, the low supply unless [exact_low] (whose caller scales it
   exactly).  Allocates nothing. *)
let[@inline] refit w f ~lo ~hi ~exact_low =
  f.window.(0) <- lo;
  f.window.(1) <- hi;
  fit_row w f ~vdd:w.vdd_high ~mono:f.high_mono;
  if not exact_low then fit_row w f ~vdd:w.vdd_low ~mono:f.low_mono

(* Horner's rule is one dependent multiply-add chain per value, so a
   lone chain waits on its own latency; the kernels below run four
   independent chains at once (four lanes or cells, or two cells at two
   supplies) and finish the rest one by one, each with [horner]'s op
   sequence. *)

let[@inline] horner mono u =
  let a = ref (Array.unsafe_get mono poly_degree) in
  for j = poly_degree - 1 downto 0 do
    a := (!a *. u) +. Array.unsafe_get mono j
  done;
  !a

(* ------------------------------------------------------------------ *)
(* Monte Carlo: one fit per job.

   A job's cells sit at fixed systematic Lgates and its lanes add
   random draws, so one fit over the systematic range widened by
   [fit_margin_sigmas] random sigmas covers every lane the sampler can
   realistically produce.  Lanes that land outside the window — a
   >10-sigma draw — fall back to the exact scalar model, so the
   approximation bound is unconditional. *)

(* P(|z| > 10 sigma) < 1e-23: the exact fallback is effectively never
   taken, it only bounds the error when it would be. *)
let fit_margin_sigmas = 10.0

type batch = {
  bt : t;
  b_base : float array;
  b_systematic : float array;
  b_raised : bool array;  (* per cell: at the high supply *)
  b_fit : fit;
}

let batch t ~base ~systematic ~raised =
  let n = Array.length base in
  assert (Array.length systematic = n);
  let lo = ref infinity and hi = ref neg_infinity in
  Array.iter
    (fun s ->
      if s < !lo then lo := s;
      if s > !hi then hi := s)
    systematic;
  let margin = fit_margin_sigmas *. t.sigma_rnd_nm in
  let f = fit_create () in
  refit (fit_work t) f ~lo:(!lo -. margin) ~hi:(!hi +. margin) ~exact_low:false;
  {
    bt = t;
    b_base = base;
    b_systematic = systematic;
    b_raised = Array.init n raised;
    b_fit = f;
  }

(* Lane [k]'s scaled delay of cell [i]: the exact model outside the
   fitted window, else Horner's rule on the interpolant. *)
let[@inline] scale_lane b mono ~raised ~lo ~hi ~mid ~inv_half ~sys ~base ~gauss
    ~n ~i ~out ~row k =
  let lg = sys +. (b.bt.sigma_rnd_nm *. Array.unsafe_get gauss ((k * n) + i)) in
  if lg < lo || lg > hi then begin
    let p = b.bt.process in
    let vdd = if raised then p.Process.vdd_high else p.Process.vdd_low in
    out.(row + k) <- base *. Process.delay_scale p ~vdd ~lgate_nm:lg
  end
  else Array.unsafe_set out (row + k) (base *. horner mono ((lg -. mid) *. inv_half))

let scale_delays_batch b ~gauss ~samples ~stride ~out =
  let n = Array.length b.b_base in
  assert (samples >= 1 && samples <= stride);
  assert (Array.length gauss >= samples * n);
  assert (Array.length out >= n * stride);
  let sigma = b.bt.sigma_rnd_nm in
  let f = b.b_fit in
  let lo = f.window.(0) and hi = f.window.(1) in
  let mid = (lo +. hi) /. 2.0 in
  let inv_half = 2.0 /. (hi -. lo) in
  (* Cell-outer, lane-inner: the per-cell constants (base, systematic,
     coefficient row) are hoisted once per row of [stride] lanes, the
     output row is contiguous, and the strided reads of [gauss] stay
     within [samples] cache lines that are reused across consecutive
     cells.  Unsafe accesses are sound: the asserts above bound every
     index ([k * n + i < samples * n <= length gauss],
     [row + k < n * stride <= length out]). *)
  let blocked = samples land lnot 3 in
  for i = 0 to n - 1 do
    let sys = Array.unsafe_get b.b_systematic i in
    let base = Array.unsafe_get b.b_base i in
    let row = i * stride in
    let raised = Array.unsafe_get b.b_raised i in
    let mono = if raised then f.high_mono else f.low_mono in
    (* Blocks of four lanes run four independent Horner chains, so
       every coefficient is loaded once per block.  A block with any
       lane outside the window, and the last [samples mod 4] lanes, go
       lane by lane. *)
    let k = ref 0 in
    while !k < blocked do
      let k0 = !k in
      let g = (k0 * n) + i in
      let lg0 = sys +. (sigma *. Array.unsafe_get gauss g) in
      let lg1 = sys +. (sigma *. Array.unsafe_get gauss (g + n)) in
      let lg2 = sys +. (sigma *. Array.unsafe_get gauss (g + (2 * n))) in
      let lg3 = sys +. (sigma *. Array.unsafe_get gauss (g + (3 * n))) in
      if
        lg0 < lo || lg0 > hi || lg1 < lo || lg1 > hi || lg2 < lo || lg2 > hi
        || lg3 < lo || lg3 > hi
      then
        for k = k0 to k0 + 3 do
          scale_lane b mono ~raised ~lo ~hi ~mid ~inv_half ~sys ~base ~gauss ~n
            ~i ~out ~row k
        done
      else begin
        let u0 = (lg0 -. mid) *. inv_half and u1 = (lg1 -. mid) *. inv_half in
        let u2 = (lg2 -. mid) *. inv_half and u3 = (lg3 -. mid) *. inv_half in
        let top = Array.unsafe_get mono poly_degree in
        let a0 = ref top and a1 = ref top and a2 = ref top and a3 = ref top in
        for j = poly_degree - 1 downto 0 do
          let c = Array.unsafe_get mono j in
          a0 := (!a0 *. u0) +. c;
          a1 := (!a1 *. u1) +. c;
          a2 := (!a2 *. u2) +. c;
          a3 := (!a3 *. u3) +. c
        done;
        let o = row + k0 in
        Array.unsafe_set out o (base *. !a0);
        Array.unsafe_set out (o + 1) (base *. !a1);
        Array.unsafe_set out (o + 2) (base *. !a2);
        Array.unsafe_set out (o + 3) (base *. !a3)
      end;
      k := k0 + 4
    done;
    for k = blocked to samples - 1 do
      scale_lane b mono ~raised ~lo ~hi ~mid ~inv_half ~sys ~base ~gauss ~n ~i
        ~out ~row k
    done
  done

(* ------------------------------------------------------------------ *)
(* Post-silicon dies: one fit per die.

   A post-silicon die is one Lgate vector scaled at both supplies.  Its
   cells all lie inside the die's own window [min, max] of [lgates], so
   a fit over that window needs no out-of-window fallback; the refit
   costs 13 exact evaluations per supply.  A die whose window is empty
   or too narrow to map onto [-1, 1] takes the exact kernel. *)

(* A window narrower than this fraction of its Lgate is flat up to
   rounding: its centre rounds by a sizeable part of its half-width, so
   [u] would land well outside [-1, 1] (a window one ULP wide reads
   2e-9 relative off through the fit).  A real die's window spans
   nanometres. *)
let flat_window = 1e-9

type die_fit = { work : fit_work; fit : fit }

let die_fit t = { work = fit_work t; fit = fit_create () }

(* Unsafe accesses are sound: [scale_die] checked every length. *)

(* [out.(i) <- base.(i) *. mono(u_i)] for every cell. *)
let[@inline] horner_into mono ~mid ~inv_half ~base ~lgates ~out =
  let n = Array.length base in
  let top = Array.unsafe_get mono poly_degree in
  let i = ref 0 in
  while !i + 3 < n do
    let i0 = !i in
    let u0 = (Array.unsafe_get lgates i0 -. mid) *. inv_half in
    let u1 = (Array.unsafe_get lgates (i0 + 1) -. mid) *. inv_half in
    let u2 = (Array.unsafe_get lgates (i0 + 2) -. mid) *. inv_half in
    let u3 = (Array.unsafe_get lgates (i0 + 3) -. mid) *. inv_half in
    let a0 = ref top and a1 = ref top and a2 = ref top and a3 = ref top in
    for j = poly_degree - 1 downto 0 do
      let c = Array.unsafe_get mono j in
      a0 := (!a0 *. u0) +. c;
      a1 := (!a1 *. u1) +. c;
      a2 := (!a2 *. u2) +. c;
      a3 := (!a3 *. u3) +. c
    done;
    Array.unsafe_set out i0 (Array.unsafe_get base i0 *. !a0);
    Array.unsafe_set out (i0 + 1) (Array.unsafe_get base (i0 + 1) *. !a1);
    Array.unsafe_set out (i0 + 2) (Array.unsafe_get base (i0 + 2) *. !a2);
    Array.unsafe_set out (i0 + 3) (Array.unsafe_get base (i0 + 3) *. !a3);
    i := i0 + 4
  done;
  for i = !i to n - 1 do
    let u = (Array.unsafe_get lgates i -. mid) *. inv_half in
    Array.unsafe_set out i (Array.unsafe_get base i *. horner mono u)
  done

(* Both supplies of every cell, [lm] into [low] and [hm] into [high]. *)
let[@inline] horner2_into lm hm ~mid ~inv_half ~base ~lgates ~low ~high =
  let n = Array.length base in
  let ltop = Array.unsafe_get lm poly_degree
  and htop = Array.unsafe_get hm poly_degree in
  let i = ref 0 in
  while !i + 1 < n do
    let i0 = !i in
    let u0 = (Array.unsafe_get lgates i0 -. mid) *. inv_half in
    let u1 = (Array.unsafe_get lgates (i0 + 1) -. mid) *. inv_half in
    let a0 = ref ltop and a1 = ref ltop and b0 = ref htop and b1 = ref htop in
    for j = poly_degree - 1 downto 0 do
      let cl = Array.unsafe_get lm j and ch = Array.unsafe_get hm j in
      a0 := (!a0 *. u0) +. cl;
      a1 := (!a1 *. u1) +. cl;
      b0 := (!b0 *. u0) +. ch;
      b1 := (!b1 *. u1) +. ch
    done;
    let base0 = Array.unsafe_get base i0
    and base1 = Array.unsafe_get base (i0 + 1) in
    Array.unsafe_set low i0 (base0 *. !a0);
    Array.unsafe_set low (i0 + 1) (base1 *. !a1);
    Array.unsafe_set high i0 (base0 *. !b0);
    Array.unsafe_set high (i0 + 1) (base1 *. !b1);
    i := i0 + 2
  done;
  for i = !i to n - 1 do
    let u = (Array.unsafe_get lgates i -. mid) *. inv_half in
    let b = Array.unsafe_get base i in
    Array.unsafe_set low i (b *. horner lm u);
    Array.unsafe_set high i (b *. horner hm u)
  done

let scale_die d ~exact_low ~base ~lgates ~low ~high =
  let n = Array.length base in
  if Array.length lgates <> n || Array.length low <> n || Array.length high <> n
  then invalid_arg "Sampler.scale_die: array lengths differ";
  (* Every empty array is the one atom, so only [n > 0] can alias. *)
  if n > 0 && (low == lgates || high == lgates || low == high) then
    invalid_arg "Sampler.scale_die: low, high and lgates must be distinct";
  let lo = ref infinity and hi = ref neg_infinity in
  for i = 0 to n - 1 do
    let lg = Array.unsafe_get lgates i in
    if lg < !lo then lo := lg;
    if lg > !hi then hi := lg
  done;
  let lo = !lo and hi = !hi in
  let w = d.work and f = d.fit in
  let p = w.process and vl = w.vdd_low and vh = w.vdd_high in
  if not (hi -. lo > flat_window *. Float.abs hi) then begin
    Process.scale_into p ~vdd:vl ~base ~lgates ~out:low;
    Process.scale_into p ~vdd:vh ~base ~lgates ~out:high
  end
  else begin
    let mid = (lo +. hi) /. 2.0 and inv_half = 2.0 /. (hi -. lo) in
    refit w f ~lo ~hi ~exact_low;
    if exact_low then begin
      Process.scale_into p ~vdd:vl ~base ~lgates ~out:low;
      horner_into f.high_mono ~mid ~inv_half ~base ~lgates ~out:high
    end
    else
      horner2_into f.low_mono f.high_mono ~mid ~inv_half ~base ~lgates ~low
        ~high
  end
