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

let delay_scale t ~lgate_nm ~vdd = Process.delay_scale t.process ~vdd ~lgate_nm

(* ------------------------------------------------------------------ *)
(* Batched structure-of-arrays scale path.

   [delay_scale] costs an [exp] and two [( ** )] per (cell, sample) —
   and it is a smooth function of Lgate alone once the cell's supply is
   fixed.  The batched path replaces it with a per-supply Chebyshev
   interpolant evaluated by Horner's rule: over the few-sigma Lgate
   window the Monte-Carlo sampler can actually produce, a degree-12 fit
   agrees with the exact model to ~3e-14 relative (the nearest complex
   singularity of the alpha-power expression is dozens of half-widths
   away, so Chebyshev coefficients decay by ~10x per degree).  Lanes
   that land outside the fitted window — a >10-sigma random draw —
   fall back to the exact scalar path, so the approximation bound is
   unconditional. *)

let poly_degree = 12

(* Half-width margin around the systematic Lgate range, in random-sigma
   units.  P(|z| > 10 sigma) < 1e-23: the exact fallback is effectively
   never taken, it only bounds the error when it would be. *)
let fit_margin_sigmas = 10.0

type poly = {
  p_vdd : float;
  p_lo : float;
  p_hi : float;
  mono : float array;  (* monomial coefficients in u = scaled Lgate *)
}

type batch = {
  bt : t;
  b_base : float array;
  b_systematic : float array;
  b_vdd : float array;
  b_poly : int array;  (* per cell: index into [polys], -1 = exact eval *)
  polys : poly array;
}

(* The work arrays of a fit: the Chebyshev nodes on [-1, 1], the
   cosine table of the transform, the node values, the Chebyshev
   coefficients and three rows of the monomial conversion. *)
type fit_work = {
  w_nodes : float array;
  w_cos : float array;  (* (degree + 1) x (degree + 1), row k = degree k *)
  w_fx : float array;
  w_cheb : float array;
  w_tprev : float array;
  w_tcur : float array;
  w_tnext : float array;
}

let fit_work ~degree =
  let n = degree + 1 in
  {
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

(* The fit's Chebyshev nodes of [lo, hi], into [out]. *)
let[@inline] nodes_into w ~lo ~hi ~out =
  for j = 0 to Array.length w.w_nodes - 1 do
    out.(j) <- ((lo +. hi) /. 2.0) +. ((hi -. lo) /. 2.0 *. w.w_nodes.(j))
  done

(* Chebyshev interpolation of [f] on [lo, hi]: MC's per-position fit. *)
let fit_poly ~degree ~lo ~hi f =
  let w = fit_work ~degree in
  let x = Array.make (degree + 1) 0.0 in
  nodes_into w ~lo ~hi ~out:x;
  Array.iteri (fun j x -> w.w_fx.(j) <- f x) x;
  let mono = Array.make (degree + 1) 0.0 in
  mono_of_nodes w ~mono;
  mono

(* Cap on distinct supply values given their own interpolant; a design
   with more (no current caller has > 2) evaluates the extras exactly. *)
let max_polys = 16

let batch t ~base ~systematic ~vdd =
  let n = Array.length base in
  assert (Array.length systematic = n);
  let lo = ref infinity and hi = ref neg_infinity in
  Array.iter
    (fun s ->
      if s < !lo then lo := s;
      if s > !hi then hi := s)
    systematic;
  let margin = fit_margin_sigmas *. t.sigma_rnd_nm in
  let lo = !lo -. margin and hi = !hi +. margin in
  let b_vdd = Array.init n vdd in
  let polys = ref [] and n_polys = ref 0 in
  let b_poly =
    Array.map
      (fun v ->
        match List.assoc_opt v !polys with
        | Some i -> i
        | None ->
          if !n_polys >= max_polys then -1
          else begin
            let i = !n_polys in
            polys := (v, i) :: !polys;
            incr n_polys;
            i
          end)
      b_vdd
  in
  let polys =
    Array.init !n_polys (fun i ->
        let v, _ = List.find (fun (_, j) -> j = i) !polys in
        {
          p_vdd = v;
          p_lo = lo;
          p_hi = hi;
          mono =
            fit_poly ~degree:poly_degree ~lo ~hi (fun lg ->
                delay_scale t ~lgate_nm:lg ~vdd:v);
        })
  in
  { bt = t; b_base = base; b_systematic = systematic; b_vdd; b_poly; polys }

(* Lane [k]'s scaled delay of cell [i]: the exact model outside the
   fitted window, else Horner's rule on the interpolant. *)
let[@inline] scale_lane b p ~mid ~inv_half ~sys ~base ~gauss ~n ~i ~out ~row k =
  let lg = sys +. (b.bt.sigma_rnd_nm *. Array.unsafe_get gauss ((k * n) + i)) in
  if lg < p.p_lo || lg > p.p_hi then
    out.(row + k) <- base *. delay_scale b.bt ~lgate_nm:lg ~vdd:p.p_vdd
  else begin
    let mono = p.mono in
    let u = (lg -. mid) *. inv_half in
    let acc = ref (Array.unsafe_get mono poly_degree) in
    for j = poly_degree - 1 downto 0 do
      acc := (!acc *. u) +. Array.unsafe_get mono j
    done;
    Array.unsafe_set out (row + k) (base *. !acc)
  end

let scale_delays_batch b ~gauss ~samples ~stride ~out =
  let n = Array.length b.b_base in
  assert (samples >= 1 && samples <= stride);
  assert (Array.length gauss >= samples * n);
  assert (Array.length out >= n * stride);
  let sigma = b.bt.sigma_rnd_nm in
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
    let pi = Array.unsafe_get b.b_poly i in
    if pi < 0 then
      for k = 0 to samples - 1 do
        let lg = sys +. (sigma *. Array.unsafe_get gauss ((k * n) + i)) in
        out.(row + k) <- base *. delay_scale b.bt ~lgate_nm:lg ~vdd:b.b_vdd.(i)
      done
    else begin
      let p = Array.unsafe_get b.polys pi in
      let mono = p.mono in
      let lo = p.p_lo and hi = p.p_hi in
      let mid = (lo +. hi) /. 2.0 in
      let inv_half = 2.0 /. (hi -. lo) in
      (* Blocks of four lanes run four independent Horner chains, each
         with [scale_lane]'s op sequence, so every coefficient is
         loaded once per block.  A block with any lane outside the
         window, and the last [samples mod 4] lanes, go lane by lane. *)
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
            scale_lane b p ~mid ~inv_half ~sys ~base ~gauss ~n ~i ~out ~row k
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
        scale_lane b p ~mid ~inv_half ~sys ~base ~gauss ~n ~i ~out ~row k
      done
    end
  done

(* ------------------------------------------------------------------ *)
(* Per-die fitted scale path.

   A post-silicon die is one Lgate vector scaled at both supplies.  Its
   cells all lie inside the die's own window [min, max] of [lgates], so
   one degree-12 interpolant per supply over that window needs no
   out-of-window fallback; the fit itself costs 13 exact evaluations
   per supply.  A die whose window is empty or too narrow to map onto
   [-1, 1] takes the exact kernel. *)

(* A window narrower than this fraction of its Lgate is flat up to
   rounding: its centre rounds by a sizeable part of its half-width, so
   [u] would land well outside [-1, 1] (a window one ULP wide reads
   2e-9 relative off through the fit).  A real die's window spans
   nanometres. *)
let flat_window = 1e-9

type die_fit = {
  process : Process.t;
  vdd_low : float;  (* [process]'s supplies, boxed in this mixed record *)
  vdd_high : float;  (* so that passing them to [Process] allocates nothing *)
  work : fit_work;
  ones : float array;  (* unit base: [Process.scale_into] at the nodes *)
  node_lg : float array;  (* the window's fit nodes, nm *)
  low_mono : float array;
  high_mono : float array;
}

let die_fit (t : t) =
  let n = poly_degree + 1 in
  {
    process = t.process;
    vdd_low = t.process.Process.vdd_low;
    vdd_high = t.process.Process.vdd_high;
    work = fit_work ~degree:poly_degree;
    ones = Array.make n 1.0;
    node_lg = Array.make n 0.0;
    low_mono = Array.make n 0.0;
    high_mono = Array.make n 0.0;
  }

(* [vdd]'s delay scale interpolated over [lo, hi], into [mono]. *)
let[@inline] fit_window f ~lo ~hi ~vdd ~mono =
  nodes_into f.work ~lo ~hi ~out:f.node_lg;
  Process.scale_into f.process ~vdd ~base:f.ones ~lgates:f.node_lg
    ~out:f.work.w_fx;
  mono_of_nodes f.work ~mono

(* Horner's rule is one dependent multiply-add chain per value, so a
   lone chain waits on its own latency; the kernels below run four
   independent chains at once (four cells, or two cells at two
   supplies) and finish the last cells one by one.  Unsafe accesses are
   sound: [scale_die] checked every length. *)

let[@inline] horner mono u =
  let a = ref (Array.unsafe_get mono poly_degree) in
  for j = poly_degree - 1 downto 0 do
    a := (!a *. u) +. Array.unsafe_get mono j
  done;
  !a

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

let scale_die f ~exact_low ~base ~lgates ~low ~high =
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
  let p = f.process and vl = f.vdd_low and vh = f.vdd_high in
  if not (hi -. lo > flat_window *. Float.abs hi) then begin
    Process.scale_into p ~vdd:vl ~base ~lgates ~out:low;
    Process.scale_into p ~vdd:vh ~base ~lgates ~out:high
  end
  else begin
    let mid = (lo +. hi) /. 2.0 and inv_half = 2.0 /. (hi -. lo) in
    fit_window f ~lo ~hi ~vdd:vh ~mono:f.high_mono;
    if exact_low then begin
      Process.scale_into p ~vdd:vl ~base ~lgates ~out:low;
      horner_into f.high_mono ~mid ~inv_half ~base ~lgates ~out:high
    end
    else begin
      fit_window f ~lo ~hi ~vdd:vl ~mono:f.low_mono;
      horner2_into f.low_mono f.high_mono ~mid ~inv_half ~base ~lgates ~low ~high
    end
  end
