(* Round-loop oracle of [Wafer.estimate] and [Wafer.estimate_at].

   The library runs each estimator round as one [Wafer.tally] over one
   site per stratum, with a die source that draws the lhs plan, the IS
   component pick, the jitter uniforms, the jittered map and the
   balance-heuristic weight.  This oracle is the estimator as it was
   before that fold: its own scratch lease, strategy instances and
   per-worker buffers, one pool chunk per stratum and its own detect
   and apply calls.  Both must produce the same report bit for bit.

   The report projection (stratified combine, stopping rule, groups) is
   rebuilt here from public APIs. *)

module Flow = Pvtol_core.Flow
module Wafer = Pvtol_core.Wafer
module Compensation = Pvtol_core.Compensation
module Smart_sampling = Pvtol_ssta.Smart_sampling
module Scenario = Pvtol_ssta.Scenario
module Position = Pvtol_variation.Position
module Sampler = Pvtol_variation.Sampler
module Pool = Pvtol_util.Pool
module Srng = Pvtol_util.Srng
module Welford = Pvtol_util.Stream_stats.Welford

let n_sampling_metrics = 4

let designated_metric = function Wafer.Ci_yield -> 0 | Wafer.Ci_rare -> 3

let die_values ~rare (d : Compensation.detect) ~(vi : Compensation.outcome)
    ~(cw : Compensation.outcome) out =
  let ind b = if b then 1.0 else 0.0 in
  out.(0) <- ind (d.Compensation.violating = 0);
  out.(1) <- ind vi.Compensation.meets;
  out.(2) <- ind cw.Compensation.meets;
  out.(3) <- ind (d.Compensation.violating >= rare)

type gacc = {
  ga_metrics : Welford.t array;
  ga_weight : Welford.t;
  mutable ga_dies : int;
}

let gacc_create () =
  {
    ga_metrics = Array.init n_sampling_metrics (fun _ -> Welford.create ());
    ga_weight = Welford.create ();
    ga_dies = 0;
  }

type site_mode = Wafer_field | Fixed_site of Position.t

let run_sampling ?pool (t : Flow.t) ~mode (scfg : Wafer.sampling_config) =
  let v = Flow.variant t scfg.Wafer.s_direction in
  let k = Compensation.kernel t v in
  let ctx = k.Compensation.ctx in
  let sampler = Flow.sampler t in
  let sta = Flow.sta t in
  let nl = Flow.netlist t in
  let n = Pvtol_netlist.Netlist.cell_count nl in
  let clock = Compensation.clock ctx in
  let low =
    nl.Pvtol_netlist.Netlist.lib.Pvtol_stdcell.Cell.process
      .Pvtol_stdcell.Process.vdd_low
  in
  let base = Pvtol_timing.Sta.nominal_delays sta in
  let pool = match pool with Some p -> p | None -> Pool.shared () in
  let s = scfg.Wafer.s_strata in
  let groups = s * s in
  let q = scfg.Wafer.s_dies_per_round in
  let sf = float_of_int s and qf = float_of_int q in
  let group_pos g =
    match mode with
    | Fixed_site p -> p
    | Wafer_field ->
      let gx = g mod s and gy = g / s in
      Position.at_xy
        ~x_frac:((float_of_int gx +. 0.5) /. sf)
        ~y_frac:((float_of_int gy +. 0.5) /. sf)
  in
  let model_at pos =
    let systematic = Compensation.systematic ctx pos in
    Smart_sampling.make
      (Smart_sampling.tilts ~sampler ~sta ~base ~systematic ~vdd:low ~clock
         ~stages:Scenario.analyzed_stages ~rare:scfg.Wafer.s_rare ())
  in
  let fixed_systematic =
    match mode with
    | Fixed_site p -> Some (Compensation.systematic ctx p)
    | Wafer_field -> None
  in
  let models =
    match (scfg.Wafer.s_method, mode) with
    | Smart_sampling.Is, Fixed_site p -> Array.make groups (model_at p)
    | Smart_sampling.Is, Wafer_field ->
      Pool.parallel_chunks pool ~chunks:groups
        ~init:(fun ~worker:_ -> ())
        ~f:(fun () g -> model_at (group_pos g))
    | (Smart_sampling.Mc | Smart_sampling.Lhs), _ ->
      Array.make groups Smart_sampling.plain
  in
  let gaccs = Array.init groups (fun _ -> gacc_create ()) in
  let pi_g = 1.0 /. float_of_int groups in
  let combine m =
    let mid, hw =
      Smart_sampling.combine ~confidence:Wafer.confidence
        (Array.map (fun ga -> (pi_g, ga.ga_metrics.(m))) gaccs)
    in
    { Wafer.mid; hw }
  in
  let rounds = ref 0 and converged = ref false in
  while (not !converged) && !rounds < scfg.Wafer.s_max_rounds do
    let round = !rounds in
    let round_accs =
      Compensation.with_scratches ctx @@ fun lease ->
      Pool.parallel_chunks pool ~chunks:groups
        ~init:(fun ~worker:_ ->
          ( lease (),
            k.Compensation.vi.Compensation.fresh_apply (),
            k.Compensation.cw.Compensation.fresh_apply (),
            (Array.make n 0.0, Array.make n 0.0,
             Array.make n_sampling_metrics 0.0) ))
        ~f:(fun (sc, vi, cw, (zbuf, sysbuf, vbuf)) g ->
          let gx = g mod s and gy = g / s in
          let model = models.(g) in
          let rng =
            Srng.create (Srng.substream_seed scfg.Wafer.s_seed [ round; gy; gx ])
          in
          let acc = gacc_create () in
          let px, py =
            match scfg.Wafer.s_method with
            | Smart_sampling.Lhs -> Smart_sampling.lhs_permutations rng q
            | Smart_sampling.Mc | Smart_sampling.Is -> ([||], [||])
          in
          for r = 0 to q - 1 do
            let comp =
              match scfg.Wafer.s_method with
              | Smart_sampling.Is -> Smart_sampling.pick model rng
              | Smart_sampling.Mc | Smart_sampling.Lhs -> -1
            in
            let ux = Srng.uniform rng in
            let uy = Srng.uniform rng in
            let pos =
              match mode with
              | Fixed_site p -> p
              | Wafer_field ->
                let fx, fy =
                  match scfg.Wafer.s_method with
                  | Smart_sampling.Mc -> (ux, uy)
                  | Smart_sampling.Is ->
                    ( (float_of_int gx +. ux) /. sf,
                      (float_of_int gy +. uy) /. sf )
                  | Smart_sampling.Lhs ->
                    ( (float_of_int gx
                      +. ((float_of_int px.(r) +. ux) /. qf))
                      /. sf,
                      (float_of_int gy
                      +. ((float_of_int py.(r) +. uy) /. qf))
                      /. sf )
                in
                Position.at_xy ~x_frac:fx ~y_frac:fy
            in
            let systematic =
              match fixed_systematic with
              | Some map -> map
              | None -> Compensation.systematic_into ctx sc pos
            in
            let w, sys_used =
              if Smart_sampling.n_components model = 0 then (1.0, systematic)
              else begin
                let pre = Srng.copy rng in
                Srng.fill_gaussians pre zbuf ~pos:0 ~len:n;
                let w = Smart_sampling.weight model ~comp ~z:zbuf in
                match Smart_sampling.shift model ~comp with
                | Either.Right () -> (w, systematic)
                | Either.Left tilt ->
                  Sampler.shifted_systematic sampler ~systematic
                    ~cells:tilt.Smart_sampling.cells
                    ~dir:tilt.Smart_sampling.dir
                    ~theta:tilt.Smart_sampling.theta ~out:sysbuf;
                  (w, sysbuf)
              end
            in
            let d = Compensation.detect ctx sc ~systematic:sys_used rng in
            let ovi = vi sc d in
            let ocw = cw sc d in
            die_values ~rare:scfg.Wafer.s_rare d ~vi:ovi ~cw:ocw vbuf;
            for m = 0 to n_sampling_metrics - 1 do
              Welford.add acc.ga_metrics.(m) (w *. vbuf.(m))
            done;
            Welford.add acc.ga_weight w;
            acc.ga_dies <- acc.ga_dies + 1
          done;
          acc)
    in
    Array.iteri
      (fun g racc ->
        let ga = gaccs.(g) in
        for m = 0 to n_sampling_metrics - 1 do
          Welford.merge ~into:ga.ga_metrics.(m) racc.ga_metrics.(m)
        done;
        Welford.merge ~into:ga.ga_weight racc.ga_weight;
        ga.ga_dies <- ga.ga_dies + racc.ga_dies)
      round_accs;
    incr rounds;
    let hw = (combine (designated_metric scfg.Wafer.s_ci_metric)).Wafer.hw in
    if hw > 0.0 && hw <= scfg.Wafer.s_ci_target then converged := true
  done;
  let designated = combine (designated_metric scfg.Wafer.s_ci_metric) in
  {
    Wafer.sr_config = scfg;
    sr_position = (match mode with Fixed_site p -> Some p | Wafer_field -> None);
    sr_clock_ns = clock;
    sr_rounds = !rounds;
    sr_converged = !converged;
    sr_dies = Array.fold_left (fun a ga -> a + ga.ga_dies) 0 gaccs;
    sr_estimate = designated.Wafer.mid;
    sr_ci_halfwidth = designated.Wafer.hw;
    sr_effective_samples =
      Array.fold_left
        (fun a ga -> a +. Smart_sampling.effective_samples ga.ga_weight)
        0.0 gaccs;
    sr_yield_uncompensated = combine 0;
    sr_yield_compensated = combine 1;
    sr_yield_chip_wide = combine 2;
    sr_rare = combine 3;
    sr_groups =
      Array.mapi
        (fun g ga ->
          {
            Wafer.sg_ix = g mod s;
            sg_iy = g / s;
            sg_dies = ga.ga_dies;
            sg_components = Smart_sampling.n_components models.(g);
            sg_yield_uncompensated = Welford.mean ga.ga_metrics.(0);
            sg_rare = Welford.mean ga.ga_metrics.(3);
            sg_mean_weight = Welford.mean ga.ga_weight;
            sg_effective_samples =
              Smart_sampling.effective_samples ga.ga_weight;
          })
        gaccs;
  }

let estimate ?pool t cfg = run_sampling ?pool t ~mode:Wafer_field cfg

let estimate_at ?pool t ~position cfg =
  run_sampling ?pool t ~mode:(Fixed_site position) cfg
