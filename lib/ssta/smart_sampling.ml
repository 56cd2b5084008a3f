(* Estimator mathematics for the variance-reduced yield engine: tilt
   construction from critical-path sensitivities, balance-heuristic
   mixture weights, Latin-hypercube jitter plans and stratified CI
   combination.  The die-population driver lives in
   [Pvtol_core.Wafer]; everything here is kernel-agnostic. *)

module Srng = Pvtol_util.Srng
module Welford = Pvtol_util.Stream_stats.Welford
module Specfun = Pvtol_util.Specfun
module Sta = Pvtol_timing.Sta
module Paths = Pvtol_timing.Paths
module Sampler = Pvtol_variation.Sampler

type method_ = Mc | Is | Lhs

let method_name = function Mc -> "mc" | Is -> "is" | Lhs -> "lhs"

(* ------------------------------------------------------------------ *)
(* Tilt components                                                      *)

type tilt = {
  cells : int array;
  dir : float array;
  theta : float;
}

(* Per-cell delay sensitivity of one traced path, as a sparse vector:
   d(path delay)/d(z_i) = base_i * d(scale)/d(Lgate) * sigma_rnd for
   each hop cell i (central difference; the scale model is smooth). *)
let path_sensitivity sampler ~base ~systematic ~vdd (p : Paths.path) =
  let process = sampler.Sampler.process in
  let sigma = sampler.Sampler.sigma_rnd_nm in
  let h_nm = 0.25 *. sigma in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (h : Paths.hop) ->
      let i = h.Paths.cell in
      if not (Hashtbl.mem tbl i) then begin
        let dscale =
          (Pvtol_stdcell.Process.delay_scale process ~vdd
             ~lgate_nm:(systematic.(i) +. h_nm)
          -. Pvtol_stdcell.Process.delay_scale process ~vdd
               ~lgate_nm:(systematic.(i) -. h_nm))
          /. (2.0 *. h_nm)
        in
        Hashtbl.replace tbl i (base.(i) *. dscale *. sigma)
      end)
    p.Paths.hops;
  let cells = Array.of_seq (Hashtbl.to_seq_keys tbl) in
  Array.sort compare cells;
  let vals = Array.map (fun i -> Hashtbl.find tbl i) cells in
  (cells, vals)

(* Worst endpoints traced per stage; the boundary back-off; the
   distance (in sigmas) past which a component is dropped. *)
let k_endpoints = 48
let theta_frac = 0.9
let theta_cap = 8.0

let tilts ~sampler ~sta ~base ~systematic ~vdd ~clock ~stages ~rare () =
  if rare <= 0 then invalid_arg "Smart_sampling.tilts: rare must be positive";
  let n = Array.length base in
  let delays = Array.make n 0.0 in
  Pvtol_stdcell.Process.scale_into sampler.Sampler.process ~vdd ~base
    ~lgates:systematic ~out:delays;
  let res = Sta.analyze sta ~delays in
  let ranked =
    List.filter_map
      (fun s -> Option.map (fun d -> (s, d)) (Sta.stage_delay res s))
      stages
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  (* Without a random component there is nothing to tilt: a zero-sigma
     die is its systematic map, and every sensitivity would be 0 / 0. *)
  if List.length ranked < rare || not (sampler.Sampler.sigma_rnd_nm > 0.0)
  then [||]
  else begin
    (* The event "at least [rare] stages violate" is bound by the
       rare-th slowest stage; only the stages below the clock among the
       [rare] slowest need to move, so only their endpoints seed
       components.  Stages already violating stay violating under a
       positive tilt (sensitivities are positive — longer Lgate is
       always slower). *)
    let need =
      List.filteri (fun i _ -> i < rare) ranked
      |> List.filter (fun (_, d) -> d < clock)
      |> List.map fst
    in
    let comps =
      List.concat_map
        (fun stage ->
          List.filter_map
            (fun (ep, d) ->
              let gap = clock -. d in
              let p = Paths.trace sta ~delays res ep in
              let cells, vals =
                path_sensitivity sampler ~base ~systematic ~vdd p
              in
              let norm =
                sqrt (Array.fold_left (fun a x -> a +. (x *. x)) 0.0 vals)
              in
              if norm <= 0.0 then None
              else begin
                let theta = theta_frac *. gap /. norm in
                if theta <= 1e-9 || theta > theta_cap then None
                else
                  Some
                    {
                      cells;
                      dir = Array.map (fun x -> x /. norm) vals;
                      theta;
                    }
              end)
            (Paths.worst_endpoints ~stage sta res ~k:k_endpoints))
        need
    in
    (* Ladder rungs: the mixture's full-theta components leave a density
       "shadow" between the origin and the tilted means — a rare die
       drawn there (defensively, or off-direction) sees q(z) below the
       nominal density and carries a weight above 1, and those few draws
       dominate the estimator's variance.  Intermediate rungs at 1/2 and
       3/4 of theta for the near components fill the shadow; their
       softmax betas are naturally large (smaller theta), so the
       denominator at moderate projections rises and the heavy tail of
       the weights collapses.  Far components (theta above the rung cap)
       contribute negligible shadow mass and get no rungs. *)
    let rung_cap = 4.5 in
    let rungs =
      List.concat_map
        (fun tl ->
          if tl.theta > rung_cap then []
          else
            [
              { tl with theta = 0.5 *. tl.theta };
              { tl with theta = 0.75 *. tl.theta };
            ])
        comps
    in
    Array.of_list (comps @ rungs)
  end

(* ------------------------------------------------------------------ *)
(* Mixture model and balance-heuristic weights                          *)

type model = {
  alpha : float;
  tilts : tilt array;
  betas : float array;   (* component pick masses, sum = 1 - alpha *)
  cum : float array;     (* alpha + running beta sums, for pick *)
  gram : float array;    (* K x K direction Gram matrix, row-major *)
}

let plain =
  { alpha = 1.0; tilts = [||]; betas = [||]; cum = [||]; gram = [||] }

(* Sparse dot of two sorted sparse vectors. *)
let sparse_dot a_cells a_vals b_cells b_vals =
  let la = Array.length a_cells and lb = Array.length b_cells in
  let acc = ref 0.0 and ia = ref 0 and ib = ref 0 in
  while !ia < la && !ib < lb do
    let ca = a_cells.(!ia) and cb = b_cells.(!ib) in
    if ca = cb then begin
      acc := !acc +. (a_vals.(!ia) *. b_vals.(!ib));
      incr ia;
      incr ib
    end
    else if ca < cb then incr ia
    else incr ib
  done;
  !acc

let make ?(alpha = 0.2) tilts =
  if not (alpha > 0.0 && alpha <= 1.0) then
    invalid_arg "Smart_sampling.make: alpha must be in (0, 1]";
  let k = Array.length tilts in
  if k = 0 then plain
  else begin
    (* Components with nearer boundaries get more of the tilted mass:
       beta_j proportional to exp (-theta_j^2 / 2), the normal tail
       order of the event each component chases. *)
    let lw = Array.map (fun t -> -0.5 *. t.theta *. t.theta) tilts in
    let lmax = Array.fold_left Float.max neg_infinity lw in
    let raw = Array.map (fun x -> exp (x -. lmax)) lw in
    let tot = Array.fold_left ( +. ) 0.0 raw in
    let betas = Array.map (fun x -> (1.0 -. alpha) *. x /. tot) raw in
    let cum = Array.make k 0.0 in
    let acc = ref alpha in
    Array.iteri
      (fun j b ->
        acc := !acc +. b;
        cum.(j) <- !acc)
      betas;
    let gram = Array.make (k * k) 0.0 in
    for j = 0 to k - 1 do
      for c = j to k - 1 do
        let d =
          sparse_dot tilts.(j).cells tilts.(j).dir tilts.(c).cells
            tilts.(c).dir
        in
        gram.((j * k) + c) <- d;
        gram.((c * k) + j) <- d
      done
    done;
    { alpha; tilts; betas; cum; gram }
  end

let n_components m = Array.length m.tilts

let pick m rng =
  (* Always one uniform, also for [plain], so the per-die stream layout
     never depends on the site. *)
  let u = Srng.uniform rng in
  let k = Array.length m.tilts in
  if k = 0 || u < m.alpha then -1
  else begin
    let comp = ref (k - 1) in
    (try
       for j = 0 to k - 1 do
         if u < m.cum.(j) then begin
           comp := j;
           raise Exit
         end
       done
     with Exit -> ());
    !comp
  end

let weight m ~comp ~z =
  let k = Array.length m.tilts in
  if k = 0 then 1.0
  else begin
    let denom = ref m.alpha in
    for j = 0 to k - 1 do
      let t = m.tilts.(j) in
      let proj = ref 0.0 in
      for s = 0 to Array.length t.cells - 1 do
        proj := !proj +. (t.dir.(s) *. z.(t.cells.(s)))
      done;
      (* The realised shift of the chosen component, through the Gram
         matrix: <u_j, z + theta_c u_c> = <u_j, z> + theta_c G_jc. *)
      let shift =
        if comp < 0 then 0.0
        else m.tilts.(comp).theta *. m.gram.((j * k) + comp)
      in
      let pt = !proj +. shift in
      denom :=
        !denom
        +. (m.betas.(j) *. exp ((t.theta *. pt) -. (0.5 *. t.theta *. t.theta)))
    done;
    1.0 /. !denom
  end

let shift m ~comp =
  if comp < 0 then Either.Right () else Either.Left m.tilts.(comp)

(* ------------------------------------------------------------------ *)
(* Latin-hypercube jitter plans                                         *)

let lhs_permutations rng n =
  if n <= 0 then invalid_arg "Smart_sampling.lhs_permutations: empty round";
  let px = Array.init n Fun.id and py = Array.init n Fun.id in
  Srng.shuffle rng px;
  Srng.shuffle rng py;
  (px, py)

(* ------------------------------------------------------------------ *)
(* Stratified estimates                                                 *)

let combine ~confidence groups =
  if not (confidence > 0.0 && confidence < 1.0) then
    invalid_arg "Smart_sampling.combine: confidence must be in (0, 1)";
  if Array.length groups = 0 then (0.0, 0.0)
  else begin
    let est = ref 0.0 and var = ref 0.0 and starved = ref false in
    Array.iter
      (fun (pi, w) ->
        est := !est +. (pi *. Welford.mean w);
        let n = Welford.count w in
        if n < 2 then starved := true
        else
          var :=
            !var +. (pi *. pi *. Welford.variance w /. float_of_int n))
      groups;
    let hw =
      if !starved then infinity
      else
        let zc =
          Specfun.normal_quantile ~mu:0.0 ~sigma:1.0
            ((1.0 +. confidence) /. 2.0)
        in
        zc *. sqrt !var
    in
    (!est, hw)
  end

let effective_samples w =
  let n = Welford.count w in
  if n = 0 then 0.0
  else begin
    let nf = float_of_int n in
    let m = Welford.mean w in
    let m2 = Welford.variance w *. (nf -. 1.0) in
    let sum = nf *. m in
    let sum2 = m2 +. (nf *. m *. m) in
    if sum2 <= 0.0 then 0.0 else sum *. sum /. sum2
  end
