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

let sample_lgates t ~systematic rng out =
  let n = Array.length systematic in
  if Array.length out <> n || out == systematic then
    invalid_arg "Sampler.sample_lgates: out must be a distinct array of the \
                 systematic's length";
  (* [fill_gaussians] is bit-identical to [n] successive [gaussian]
     calls, so this is the per-cell [systematic + sigma * gaussian]
     loop, and leaves [rng] in the same state. *)
  Srng.fill_gaussians rng out ~pos:0 ~len:n;
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

(* Chebyshev interpolation of [f] on [lo, hi] at [degree + 1] nodes,
   converted to monomial coefficients in u = (2x - lo - hi)/(hi - lo).
   The conversion loses ~2^degree worth of conditioning in the worst
   case, but the coefficients decay geometrically here, so the observed
   end-to-end error stays at a few ULPs (pinned by the tests). *)
let fit_poly ~degree ~lo ~hi f =
  let n = degree + 1 in
  let fx =
    Array.init n (fun j ->
        let u = cos (Float.pi *. (float_of_int j +. 0.5) /. float_of_int n) in
        f (((lo +. hi) /. 2.0) +. ((hi -. lo) /. 2.0 *. u)))
  in
  let c =
    Array.init n (fun k ->
        let s = ref 0.0 in
        for j = 0 to n - 1 do
          s :=
            !s
            +. fx.(j)
               *. cos
                    (Float.pi *. float_of_int k
                    *. (float_of_int j +. 0.5)
                    /. float_of_int n)
        done;
        2.0 /. float_of_int n *. !s)
  in
  c.(0) <- c.(0) /. 2.0;
  let mono = Array.make n 0.0 in
  let tprev = Array.make n 0.0 and tcur = Array.make n 0.0 in
  tprev.(0) <- 1.0;
  mono.(0) <- c.(0);
  if n > 1 then begin
    tcur.(1) <- 1.0;
    for i = 0 to n - 1 do
      mono.(i) <- mono.(i) +. (c.(1) *. tcur.(i))
    done;
    let tnext = Array.make n 0.0 in
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
  end;
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
