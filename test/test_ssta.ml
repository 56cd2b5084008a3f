(* Tests for the Monte-Carlo SSTA, scenario classification and
   Razor sensor selection. *)

module MC = Pvtol_ssta.Monte_carlo
module Scenario = Pvtol_ssta.Scenario
module Sensors = Pvtol_ssta.Sensors
module Sta = Pvtol_timing.Sta
module Sampler = Pvtol_variation.Sampler
module Position = Pvtol_variation.Position
module Netlist = Pvtol_netlist.Netlist
module Stage = Pvtol_netlist.Stage

let env =
  lazy
    (let v = Pvtol_vex.Vex_core.build Pvtol_vex.Vex_core.small_config in
     let nl = v.Pvtol_vex.Vex_core.netlist in
     let fp = Pvtol_place.Floorplan.create ~cell_area:(Netlist.area nl) () in
     let p = Pvtol_place.Placer.place nl fp in
     let sta =
       Sta.of_placement p ~capture:v.Pvtol_vex.Vex_core.capture_stage
     in
     (v, nl, p, sta, Sampler.create ()))

let run ?(samples = 60) ?(seed = 5) ?raised position =
  let _, _, p, sta, sampler = Lazy.force env in
  List.hd
    (MC.run ~config:{ MC.samples; seed } ~sampler ~sta ~placement:p
       [ MC.job ?raised position ])

(* Golden values captured from the serial Monte-Carlo loop (one
   sequential SplitMix64 stream over all samples, exact delay scale,
   one full STA pass per sample) for samples=60, seed=5, point A, small
   VEX.  They pin the test-side oracle ([Engine_diff.oracle]), which
   the library run is then held to. *)
let golden_worst_0 = 0x1.bfe39f066e2efp+1
let golden_worst_59 = 0x1.c3f1388923c4bp+1
let golden_worst_sum = 0x1.a369ed8005faep+7

let golden_stage_means =
  [
    (Stage.Fetch, 0x1.5def8212cd50fp+0);
    (Stage.Decode, 0x1.714671bf8111bp+0);
    (Stage.Execute, 0x1.bf5fec444aa52p+1);
    (Stage.Writeback, 0x1.6e286acd91abap+1);
  ]

let golden_crit_checksum = 2637444
let golden_crit_size = 81

let test_mc_domain_invariance () =
  let module Pool = Pvtol_util.Pool in
  let _, _, p, sta, sampler = Lazy.force env in
  let config = { MC.samples = 60; seed = 5 } in
  let oracle position =
    Engine_diff.oracle ~config ~sampler ~sta ~placement:p ~position
  in
  let r = oracle Position.point_a in
  Alcotest.(check bool) "worst_samples.(0) golden" true
    (r.MC.worst_samples.(0) = golden_worst_0);
  Alcotest.(check bool) "worst_samples.(59) golden" true
    (r.MC.worst_samples.(59) = golden_worst_59);
  Alcotest.(check bool) "worst_samples sum golden" true
    (Array.fold_left ( +. ) 0.0 r.MC.worst_samples = golden_worst_sum);
  List.iter
    (fun (stage, mean) ->
      match MC.stage_stats r stage with
      | None -> Alcotest.failf "stage %s missing" (Stage.name stage)
      | Some ss ->
        Alcotest.(check bool)
          (Printf.sprintf "%s mean golden" (Stage.name stage))
          true
          (ss.MC.summary.Pvtol_util.Stats.mean = mean))
    golden_stage_means;
  let acc = ref 0 in
  Hashtbl.iter (fun cid n -> acc := !acc + (cid * n)) r.MC.endpoint_critical_count;
  Alcotest.(check int) "criticality checksum" golden_crit_checksum !acc;
  Alcotest.(check int) "criticality table size" golden_crit_size
    (Hashtbl.length r.MC.endpoint_critical_count);
  (* The library run at point A matches the pinned oracle for every pool
     size; the other positions are diffed in [Test_engines]. *)
  List.iter
    (fun domains ->
      let pool = Pool.create ~domains () in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          Engine_diff.check_mc
            ~label:(Printf.sprintf "%d domains" domains)
            r
            (List.hd
               (MC.run ~config ~pool ~sampler ~sta ~placement:p
                  [ MC.job Position.point_a ]))))
    [ 1; 2; 4 ]

(* Golden values of the library's fitted run (one Chebyshev fit per
   job, 4-lane Horner blocks) for samples=60, seed=5, point A, small
   VEX: all cells low, and odd cells high.  The oracle check above
   holds the library within 1e-9 of the exact path; these pins hold it
   bit for bit, so a one-ULP change in the fit coefficients shows. *)
type mc_pin = {
  worst_0 : float;
  worst_59 : float;
  worst_sum : float;
  stage_means : (Stage.t * float) list;
  crit_checksum : int;
  crit_size : int;
}

let fitted_pins =
  [
    ( "all low",
      None,
      {
        worst_0 = 0x1.bfe39f066e2e6p+1;
        worst_59 = 0x1.c3f1388923c27p+1;
        worst_sum = 0x1.a369ed8005fap+7;
        stage_means =
          [
            (Stage.Fetch, 0x1.5def8212cd50bp+0);
            (Stage.Decode, 0x1.714671bf8111cp+0);
            (Stage.Execute, 0x1.bf5fec444aa45p+1);
            (Stage.Writeback, 0x1.6e286acd91aadp+1);
          ];
        crit_checksum = 2637444;
        crit_size = 81;
      } );
    ( "odd cells high",
      Some (fun cid -> cid mod 2 = 1),
      {
        worst_0 = 0x1.a29af42d9377bp+1;
        worst_59 = 0x1.a57f7489d2ce3p+1;
        worst_sum = 0x1.8a1588fd005bp+7;
        stage_means =
          [
            (Stage.Fetch, 0x1.4cb9606a3e90cp+0);
            (Stage.Decode, 0x1.518ebceef97b7p+0);
            (Stage.Execute, 0x1.a45b3cc999facp+1);
            (Stage.Writeback, 0x1.55febfb751a72p+1);
          ];
        crit_checksum = 2350838;
        crit_size = 88;
      } );
  ]

let test_mc_fitted_golden () =
  let check_bits what expected got =
    if expected <> got then
      Alcotest.failf "%s: expected %h, got %h" what expected got
  in
  List.iter
    (fun (label, raised, pin) ->
      let r = run ?raised Position.point_a in
      check_bits (label ^ ": worst_samples.(0)") pin.worst_0
        r.MC.worst_samples.(0);
      check_bits (label ^ ": worst_samples.(59)") pin.worst_59
        r.MC.worst_samples.(59);
      check_bits (label ^ ": worst_samples sum") pin.worst_sum
        (Array.fold_left ( +. ) 0.0 r.MC.worst_samples);
      List.iter
        (fun (stage, mean) ->
          match MC.stage_stats r stage with
          | None -> Alcotest.failf "%s: stage %s missing" label (Stage.name stage)
          | Some ss ->
            check_bits
              (Printf.sprintf "%s: %s mean" label (Stage.name stage))
              mean ss.MC.summary.Pvtol_util.Stats.mean)
        pin.stage_means;
      let acc = ref 0 in
      Hashtbl.iter (fun cid n -> acc := !acc + (cid * n)) r.MC.endpoint_critical_count;
      Alcotest.(check int) (label ^ ": criticality checksum") pin.crit_checksum !acc;
      Alcotest.(check int) (label ^ ": criticality table size") pin.crit_size
        (Hashtbl.length r.MC.endpoint_critical_count))
    fitted_pins

let test_mc_batched_domain_invariance () =
  (* The library run must be bit-identical for every domain count:
     chunks own disjoint sample slices and draw from jump-ahead RNG
     streams, so the fan-out width must not leak into any result. *)
  let module Pool = Pvtol_util.Pool in
  let _, _, p, sta, sampler = Lazy.force env in
  let run_with pool =
    List.hd
      (MC.run ~config:{ MC.samples = 60; seed = 5 } ~pool ~sampler ~sta
         ~placement:p [ MC.job Position.point_a ])
  in
  let reference = ref None in
  List.iter
    (fun domains ->
      let pool = Pool.create ~domains () in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          let r = run_with pool in
          let label = Printf.sprintf "%d domains" domains in
          match !reference with
          | None -> reference := Some r
          | Some r0 ->
            Alcotest.(check bool)
              (label ^ ": worst_samples bit-identical to 1 domain")
              true
              (r.MC.worst_samples = r0.MC.worst_samples);
            List.iter2
              (fun (a : MC.stage_stats) (b : MC.stage_stats) ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: %s samples bit-identical" label
                     (Stage.name a.MC.stage))
                  true
                  (a.MC.samples = b.MC.samples))
              r.MC.stages r0.MC.stages;
            let crit r =
              Hashtbl.fold (fun cid n acc -> (cid, n) :: acc)
                r.MC.endpoint_critical_count []
              |> List.sort compare
            in
            Alcotest.(check bool)
              (label ^ ": criticality identical")
              true
              (crit r = crit r0)))
    [ 1; 2; 4 ]

let test_mc_fused_matches_lone () =
  (* Fused-vs-lone oracle: every job of one run is Marshal-equal to the
     run of its one-element list — 150 samples (a 22-lane last chunk),
     distinct supply maps, a duplicated position, on 1 and 2 domains.
     The fused run draws each chunk's gaussians once, not once per
     job. *)
  let module Pool = Pvtol_util.Pool in
  let module Metrics = Pvtol_util.Metrics in
  let _, nl, p, sta, sampler = Lazy.force env in
  let config = { MC.samples = 150; seed = 11 } in
  let jobs =
    [
      ("A", MC.job Position.point_a);
      ("B", MC.job Position.point_b);
      ("A, odd cells high", MC.job ~raised:(fun cid -> cid mod 2 = 1) Position.point_a);
      ("C, all high", MC.job ~raised:(fun _ -> true) Position.point_c);
      ("A again", MC.job Position.point_a);
      ("off-diagonal", MC.job (Position.at_xy ~x_frac:0.2 ~y_frac:0.6));
    ]
  in
  let gaussians = Metrics.counter "mc_gaussians_total" in
  let marshal (r : MC.result) = Marshal.to_string r [] in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) @@ fun () ->
  List.iter
    (fun domains ->
      let pool = Pool.create ~domains () in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          let run jobs = MC.run ~config ~pool ~sampler ~sta ~placement:p jobs in
          let g0 = Metrics.counter_value gaussians in
          let fused = run (List.map snd jobs) in
          Alcotest.(check int)
            (Printf.sprintf "%d domains: one draw for %d jobs" domains
               (List.length jobs))
            (config.MC.samples * Netlist.cell_count nl)
            (Metrics.counter_value gaussians - g0);
          List.iter2
            (fun (label, job) r ->
              Alcotest.(check bool)
                (Printf.sprintf "%d domains: %s fused = lone" domains label)
                true
                (marshal r = marshal (List.hd (run [ job ]))))
            jobs fused;
          Alcotest.(check bool) "duplicated position, same result" true
            (marshal (List.nth fused 0) = marshal (List.nth fused 4));
          Alcotest.(check bool) "supply map changes the result" false
            (marshal (List.nth fused 0) = marshal (List.nth fused 2))))
    [ 1; 2 ]

let test_mc_deterministic () =
  let a = run Position.point_a and b = run Position.point_a in
  List.iter2
    (fun (x : MC.stage_stats) (y : MC.stage_stats) ->
      Alcotest.(check bool) "same samples" true (x.MC.samples = y.MC.samples))
    a.MC.stages b.MC.stages

let test_mc_seed_changes_samples () =
  let a = run ~seed:5 Position.point_a and b = run ~seed:6 Position.point_a in
  let xa = (List.hd a.MC.stages).MC.samples
  and xb = (List.hd b.MC.stages).MC.samples in
  Alcotest.(check bool) "different seed different draw" true (xa <> xb)

let test_mc_stage_coverage () =
  let r = run Position.point_a in
  let stages = List.map (fun (s : MC.stage_stats) -> s.MC.stage) r.MC.stages in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "%s analyzed" (Stage.name s))
        true (List.mem s stages))
    [ Stage.Fetch; Stage.Decode; Stage.Execute; Stage.Writeback ]

let test_mc_position_ordering () =
  (* Delays at the slow corner stochastically dominate the fast one. *)
  let a = run Position.point_a and d = run Position.point_d in
  List.iter2
    (fun (sa : MC.stage_stats) (sd : MC.stage_stats) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s slower at A" (Stage.name sa.MC.stage))
        true
        (sa.MC.summary.Pvtol_util.Stats.mean > sd.MC.summary.Pvtol_util.Stats.mean))
    a.MC.stages d.MC.stages

let test_mc_three_sigma_above_mean () =
  let r = run Position.point_b in
  List.iter
    (fun (ss : MC.stage_stats) ->
      Alcotest.(check bool) "3-sigma above mean" true
        (MC.three_sigma_delay ss > ss.MC.summary.Pvtol_util.Stats.mean))
    r.MC.stages

let test_mc_high_vdd_shifts_down () =
  let low = run Position.point_a in
  let high = run ~raised:(fun _ -> true) Position.point_a in
  List.iter2
    (fun (l : MC.stage_stats) (h : MC.stage_stats) ->
      Alcotest.(check bool) "high vdd faster" true
        (h.MC.summary.Pvtol_util.Stats.mean < l.MC.summary.Pvtol_util.Stats.mean))
    low.MC.stages high.MC.stages

let test_scenario_classification () =
  let r = run ~samples:80 Position.point_a in
  (* With an absurdly large clock nothing violates... *)
  let sc = Scenario.classify ~clock:1e9 r in
  Alcotest.(check int) "no violation at huge clock" 0 sc.Scenario.index;
  (* ...and with a tiny clock every analyzed stage violates. *)
  let sc2 = Scenario.classify ~clock:1e-9 r in
  Alcotest.(check int) "all violate at tiny clock" 3 sc2.Scenario.index;
  (* Violating stages are ordered worst-first. *)
  match sc2.Scenario.violating with
  | first :: _ ->
    let worst =
      List.fold_left
        (fun (bs, bd) (s : Scenario.stage_slack) ->
          if s.Scenario.slack < bd then (s.Scenario.stage, s.Scenario.slack)
          else (bs, bd))
        (Stage.Fetch, infinity) sc2.Scenario.stage_slacks
    in
    Alcotest.(check bool) "ordered worst first" true (Stage.equal first (fst worst))
  | [] -> Alcotest.fail "expected violations"

let test_scenario_ladder_monotone () =
  (* The scenario index never increases as the die moves toward the fast
     corner, for any clock choice taken from the data. *)
  let a = run ~samples:80 Position.point_a in
  let clock =
    match MC.stage_stats a Stage.Execute with
    | Some ss -> MC.three_sigma_delay ss *. 0.99
    | None -> Alcotest.fail "execute stats missing"
  in
  let indexes =
    List.map
      (fun pos -> (Scenario.classify ~clock (run ~samples:80 pos)).Scenario.index)
      Position.named
  in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b && non_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "ladder non-increasing along diagonal" true
    (non_increasing indexes)

let test_analytic_clark_max () =
  let module An = Pvtol_ssta.Analytic in
  (* Degenerate case: zero variance reduces to plain max. *)
  let a = { An.mean = 3.0; var = 0.0 } and b = { An.mean = 1.0; var = 0.0 } in
  let m = An.clark_max a b in
  Alcotest.(check bool) "degenerate max" true
    (Float.abs (m.An.mean -. 3.0) < 1e-12 && m.An.var < 1e-12);
  (* Symmetric case: max of two iid N(0,1) has mean 1/sqrt(pi). *)
  let g = { An.mean = 0.0; var = 1.0 } in
  let m = An.clark_max g g in
  Alcotest.(check bool) "iid normal max mean" true
    (Float.abs (m.An.mean -. (1.0 /. sqrt Float.pi)) < 1e-9);
  (* Monte-Carlo validation of Clark's moments on an asymmetric pair. *)
  let rng = Pvtol_util.Srng.create 17 in
  let acc = Pvtol_util.Stream_stats.Welford.create () in
  let a = { An.mean = 1.0; var = 0.04 } and b = { An.mean = 1.1; var = 0.09 } in
  for _ = 1 to 40_000 do
    let x = a.An.mean +. (sqrt a.An.var *. Pvtol_util.Srng.gaussian rng) in
    let y = b.An.mean +. (sqrt b.An.var *. Pvtol_util.Srng.gaussian rng) in
    Pvtol_util.Stream_stats.Welford.add acc (Float.max x y)
  done;
  let m = An.clark_max a b in
  Alcotest.(check bool) "clark mean vs MC" true
    (Float.abs (m.An.mean -. Pvtol_util.Stream_stats.Welford.mean acc) < 0.01);
  Alcotest.(check bool) "clark var vs MC" true
    (Float.abs (m.An.var -. Pvtol_util.Stream_stats.Welford.variance acc) < 0.01)

let test_analytic_matches_mc () =
  let module An = Pvtol_ssta.Analytic in
  let _, _, p, sta, sampler = Lazy.force env in
  let mc = run ~samples:150 Position.point_a in
  let systematic = Sampler.systematic_lgates sampler p Position.point_a in
  let an = An.analyze ~sta ~sampler ~systematic in
  List.iter
    (fun s ->
      match (MC.stage_stats mc s, List.assoc_opt s an.An.stage_delay) with
      | Some ss, Some g ->
        let mc3 = MC.three_sigma_delay ss in
        let an3 = An.three_sigma g in
        Alcotest.(check bool)
          (Printf.sprintf "%s analytic within 2%% of MC" (Stage.name s))
          true
          (Float.abs (mc3 -. an3) /. mc3 < 0.02)
      | _ -> Alcotest.fail "missing stage")
    [ Stage.Decode; Stage.Execute; Stage.Writeback ]

let test_mc_off_diagonal () =
  (* [at_xy] on the x=y line is the same position as [at_fraction]:
     identical RNG protocol => bit-identical Monte-Carlo output. *)
  let r1 = run (Position.at_fraction 0.25) in
  let r2 = run (Position.at_xy ~x_frac:0.25 ~y_frac:0.25) in
  Alcotest.(check bool) "diagonal at_xy bit-identical" true
    (r1.MC.worst_samples = r2.MC.worst_samples);
  List.iter2
    (fun (a : MC.stage_stats) (b : MC.stage_stats) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s samples bit-identical" (Stage.name a.MC.stage))
        true
        (a.MC.samples = b.MC.samples))
    r1.MC.stages r2.MC.stages;
  (* Off the diagonal nothing degenerates: full stage coverage, finite
     positive spreads, a populated criticality table and a sane
     scenario ladder. *)
  List.iter
    (fun (x_frac, y_frac) ->
      let r = run ~samples:80 (Position.at_xy ~x_frac ~y_frac) in
      Alcotest.(check int) "all analyzed stages present" 4
        (List.length r.MC.stages);
      List.iter
        (fun (ss : MC.stage_stats) ->
          let s = ss.MC.summary in
          Alcotest.(check bool) "finite positive spread" true
            (Float.is_finite s.Pvtol_util.Stats.mean
            && s.Pvtol_util.Stats.stddev > 0.0
            && s.Pvtol_util.Stats.min < s.Pvtol_util.Stats.max))
        r.MC.stages;
      Alcotest.(check bool) "criticality table populated" true
        (Hashtbl.length r.MC.endpoint_critical_count > 0);
      Alcotest.(check int) "no violation at huge clock" 0
        (Scenario.classify ~clock:1e9 r).Scenario.index;
      Alcotest.(check int) "all violate at tiny clock" 3
        (Scenario.classify ~clock:1e-9 r).Scenario.index)
    [ (0.1, 0.9); (0.9, 0.1); (0.0, 1.0) ];
  (* Both coordinates move delay: sliding either axis toward the fast
     corner speeds every stage up (the systematic map decays in x AND
     y — a diagonal-only model would miss one of these). *)
  let check_faster label slow fast =
    List.iter2
      (fun (s : MC.stage_stats) (f : MC.stage_stats) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s faster" label (Stage.name s.MC.stage))
          true
          (f.MC.summary.Pvtol_util.Stats.mean
          < s.MC.summary.Pvtol_util.Stats.mean))
      slow.MC.stages fast.MC.stages
  in
  check_faster "x axis"
    (run (Position.at_xy ~x_frac:0.0 ~y_frac:0.5))
    (run (Position.at_xy ~x_frac:1.0 ~y_frac:0.5));
  check_faster "y axis"
    (run (Position.at_xy ~x_frac:0.5 ~y_frac:0.0))
    (run (Position.at_xy ~x_frac:0.5 ~y_frac:1.0))

let test_analytic_mc_differential () =
  (* Differential oracle: the single-traversal analytic SSTA against
     the Monte-Carlo sample moments, per stage, at all four named die
     positions.  Tolerances (documented contract, not typical error):
     stage means within 1% relative (observed worst 0.51% on this
     design), stage sigmas within 60% relative (observed worst 49% on
     Execute — the Clark max over many near-identical paths
     underestimates spread, and the MC sigma itself carries sampling
     noise at 150 samples). *)
  let module An = Pvtol_ssta.Analytic in
  let _, _, p, sta, sampler = Lazy.force env in
  List.iter
    (fun pos ->
      let mc = run ~samples:150 pos in
      let systematic = Sampler.systematic_lgates sampler p pos in
      let an = An.analyze ~sta ~sampler ~systematic in
      List.iter
        (fun (ss : MC.stage_stats) ->
          match List.assoc_opt ss.MC.stage an.An.stage_delay with
          | None ->
            Alcotest.failf "%s: stage %s missing from analytic result"
              pos.Position.label (Stage.name ss.MC.stage)
          | Some g ->
            let mc_mean = ss.MC.summary.Pvtol_util.Stats.mean in
            let mc_sigma = ss.MC.summary.Pvtol_util.Stats.stddev in
            let an_sigma = sqrt g.An.var in
            let d_mean = Float.abs (g.An.mean -. mc_mean) /. mc_mean in
            let d_sigma = Float.abs (an_sigma -. mc_sigma) /. mc_sigma in
            if d_mean >= 0.01 then
              Alcotest.failf "%s/%s: mean off by %.2f%% (analytic %g, mc %g)"
                pos.Position.label (Stage.name ss.MC.stage) (100.0 *. d_mean)
                g.An.mean mc_mean;
            if d_sigma >= 0.60 then
              Alcotest.failf "%s/%s: sigma off by %.1f%% (analytic %g, mc %g)"
                pos.Position.label (Stage.name ss.MC.stage) (100.0 *. d_sigma)
                an_sigma mc_sigma)
        mc.MC.stages)
    Position.named

let test_sensors () =
  let _, nl, _, sta, _ = Lazy.force env in
  let r = run ~samples:80 Position.point_a in
  let plan = Sensors.select r sta in
  Alcotest.(check bool) "some sites selected" true (List.length plan.Sensors.sites > 0);
  List.iter
    (fun (site : Sensors.site) ->
      Alcotest.(check bool) "criticality above threshold" true
        (site.Sensors.criticality >= 0.01);
      Alcotest.(check bool) "site is a flop" false
        (Netlist.is_comb nl.Netlist.cells.(site.Sensors.endpoint)))
    plan.Sensors.sites;
  Alcotest.(check bool) "overhead fraction sane" true
    (plan.Sensors.area_overhead_frac > 0.0 && plan.Sensors.area_overhead_frac < 0.2);
  (* A stricter threshold never selects more sites. *)
  let strict = Sensors.select ~min_criticality:0.5 r sta in
  Alcotest.(check bool) "stricter threshold fewer sites" true
    (List.length strict.Sensors.sites <= List.length plan.Sensors.sites)


(* Every stage's sample goes through the chi-square test, so a run
   below [Fit]'s minimum is refused up front, naming the minimum. *)
let test_mc_min_samples () =
  let _, _, p, sta, sampler = Lazy.force env in
  let min = Pvtol_util.Fit.min_samples in
  Alcotest.check_raises "below the minimum"
    (Invalid_argument
       (Printf.sprintf "Monte_carlo.run: %d samples, at least %d needed"
          (min - 1) min))
    (fun () ->
      ignore
        (MC.run ~config:{ MC.samples = min - 1; seed = 5 } ~sampler ~sta
           ~placement:p [ MC.job Position.point_a ]))

let suite =
  ( "ssta",
    [
      Alcotest.test_case "mc deterministic" `Quick test_mc_deterministic;
      Alcotest.test_case "mc rejects too few samples" `Quick test_mc_min_samples;
      Alcotest.test_case "mc domain-count invariance + serial golden" `Quick
        test_mc_domain_invariance;
      Alcotest.test_case "mc fitted run golden (low, two-supply)" `Quick
        test_mc_fitted_golden;
      Alcotest.test_case "mc batched domain-count invariance" `Quick
        test_mc_batched_domain_invariance;
      Alcotest.test_case "mc fused jobs = lone runs (1/2 domains)" `Quick
        test_mc_fused_matches_lone;
      Alcotest.test_case "mc seed sensitivity" `Quick test_mc_seed_changes_samples;
      Alcotest.test_case "mc stage coverage" `Quick test_mc_stage_coverage;
      Alcotest.test_case "mc position ordering" `Quick test_mc_position_ordering;
      Alcotest.test_case "mc 3-sigma above mean" `Quick test_mc_three_sigma_above_mean;
      Alcotest.test_case "mc high vdd shifts down" `Quick test_mc_high_vdd_shifts_down;
      Alcotest.test_case "scenario classification" `Quick test_scenario_classification;
      Alcotest.test_case "scenario ladder monotone" `Quick test_scenario_ladder_monotone;
      Alcotest.test_case "sensor selection" `Quick test_sensors;
      Alcotest.test_case "clark max moments" `Quick test_analytic_clark_max;
      Alcotest.test_case "analytic vs MC" `Quick test_analytic_matches_mc;
      Alcotest.test_case "mc off-diagonal positions" `Quick test_mc_off_diagonal;
      Alcotest.test_case "analytic vs MC differential (A-D)" `Quick
        test_analytic_mc_differential;
    ] )
