(* Statistical test harness for the variance-reduced yield estimators:
   likelihood-ratio exactness on a synthetic mixture, LHS quota
   accounting, stopping-rule behaviour, cross-domain bit-identity of
   sampling reports — and, behind PVTOL_SLOW_TESTS=1, the differential
   oracle against long brute-force runs and the
   analytic SSTA model at the paper's die positions. *)

module Smart_sampling = Pvtol_ssta.Smart_sampling
module Analytic = Pvtol_ssta.Analytic
module Flow = Pvtol_core.Flow
module Wafer = Pvtol_core.Wafer
module Position = Pvtol_variation.Position
module Specfun = Pvtol_util.Specfun
module Pool = Pvtol_util.Pool
module Srng = Pvtol_util.Srng
module Stage = Pvtol_netlist.Stage
module Json = Pvtol_util.Json
module Metrics = Pvtol_util.Metrics

let flow = lazy (Flow.prepare ~config:Flow.quick_config ())

let with_pool ~domains f =
  let p = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

(* ------------------------------------------------------------------ *)
(* Likelihood-ratio weights on a synthetic mixture                      *)

(* A small hand-built mixture over R^6 with overlapping supports, so
   the Gram matrix has off-diagonal terms.  Sampling from the mixture
   exactly as the production driver does (pick a component, add its
   mean shift to a fresh standard-normal draw) and weighting with the
   raw draw must integrate to 1 — the balance heuristic is unbiased for
   the constant integrand — and must reproduce a known tail
   probability for a tilted integrand. *)
let synthetic_model ~alpha =
  let t1 =
    {
      Smart_sampling.cells = [| 0; 1; 2 |];
      dir = Array.make 3 (1.0 /. sqrt 3.0);
      theta = 1.5;
    }
  in
  let t2 =
    {
      Smart_sampling.cells = [| 2; 3 |];
      dir = [| 0.6; 0.8 |];
      theta = 2.5;
    }
  in
  let t3 =
    { Smart_sampling.cells = [| 5 |]; dir = [| 1.0 |]; theta = 0.8 }
  in
  Smart_sampling.make ~alpha [| t1; t2; t3 |]

let test_weights_integrate_to_one () =
  let alpha = 0.3 in
  let model = synthetic_model ~alpha in
  Alcotest.(check int) "components" 3 (Smart_sampling.n_components model);
  let dim = 6 in
  let rng = Srng.create 2718 in
  let z = Array.make dim 0.0 in
  let draws = 40_000 in
  let sum_w = ref 0.0 and sum_w2 = ref 0.0 in
  let sum_f = ref 0.0 and sum_f2 = ref 0.0 in
  (* Tail integrand along component 1's direction: under the nominal
     measure its projection is standard normal. *)
  let u1 = 1.0 /. sqrt 3.0 in
  let tail_cut = 2.0 in
  let max_w = ref 0.0 in
  for _ = 1 to draws do
    let comp = Smart_sampling.pick model rng in
    for i = 0 to dim - 1 do
      z.(i) <- Srng.gaussian rng
    done;
    let w = Smart_sampling.weight model ~comp ~z in
    if w > !max_w then max_w := w;
    (* The realised total draw adds the picked component's shift. *)
    let shift k =
      match Smart_sampling.shift model ~comp with
      | Either.Right () -> 0.0
      | Either.Left t ->
        let s = ref 0.0 in
        Array.iteri
          (fun j c -> if c = k then s := !s +. (t.Smart_sampling.theta *. t.Smart_sampling.dir.(j)))
          t.Smart_sampling.cells;
        !s
    in
    let proj1 = u1 *. ((z.(0) +. shift 0) +. (z.(1) +. shift 1) +. (z.(2) +. shift 2)) in
    let f = if proj1 > tail_cut then w else 0.0 in
    sum_w := !sum_w +. w;
    sum_w2 := !sum_w2 +. (w *. w);
    sum_f := !sum_f +. f;
    sum_f2 := !sum_f2 +. (f *. f)
  done;
  let n = float_of_int draws in
  let mean_w = !sum_w /. n in
  let se_w = sqrt (((!sum_w2 /. n) -. (mean_w *. mean_w)) /. n) in
  Alcotest.(check bool)
    (Printf.sprintf "E[w] = 1 within 4 se (got %.4f +- %.4f)" mean_w se_w)
    true
    (Float.abs (mean_w -. 1.0) <= 4.0 *. se_w);
  Alcotest.(check bool) "weights bounded by 1/alpha" true
    (!max_w <= (1.0 /. alpha) +. 1e-12);
  (* E_q[w 1{<u1, z_total> > cut}] = P(N(0,1) > cut). *)
  let mean_f = !sum_f /. n in
  let se_f = sqrt (((!sum_f2 /. n) -. (mean_f *. mean_f)) /. n) in
  let exact = 1.0 -. Specfun.normal_cdf ~mu:0.0 ~sigma:1.0 tail_cut in
  Alcotest.(check bool)
    (Printf.sprintf "tail probability %.5f vs exact %.5f" mean_f exact)
    true
    (Float.abs (mean_f -. exact) <= 5.0 *. se_f)

let test_plain_model () =
  Alcotest.(check int) "no components" 0
    (Smart_sampling.n_components Smart_sampling.plain);
  let z = Array.init 4 (fun i -> float_of_int i) in
  Alcotest.(check (float 0.0)) "unit weight" 1.0
    (Smart_sampling.weight Smart_sampling.plain ~comp:(-1) ~z);
  (* pick consumes exactly one uniform also on the plain model, so the
     per-die stream layout never depends on the site's mixture. *)
  let r1 = Srng.create 5 and r2 = Srng.create 5 in
  Alcotest.(check int) "plain picks defensive" (-1)
    (Smart_sampling.pick Smart_sampling.plain r1);
  ignore (Srng.uniform r2);
  Alcotest.(check (float 0.0)) "exactly one uniform consumed"
    (Srng.uniform r2) (Srng.uniform r1);
  match Smart_sampling.shift Smart_sampling.plain ~comp:(-1) with
  | Either.Right () -> ()
  | Either.Left _ -> Alcotest.fail "defensive pick must not shift"

let test_make_validation () =
  Alcotest.check_raises "alpha 0 rejected"
    (Invalid_argument "Smart_sampling.make: alpha must be in (0, 1]")
    (fun () -> ignore (Smart_sampling.make ~alpha:0.0 [||]));
  Alcotest.(check int) "empty tilts collapse to plain" 0
    (Smart_sampling.n_components (Smart_sampling.make [||]))

(* ------------------------------------------------------------------ *)
(* Latin-hypercube quotas                                               *)

let test_lhs_permutations () =
  List.iter
    (fun n ->
      let rng = Srng.create (100 + n) in
      let px, py = Smart_sampling.lhs_permutations rng n in
      let is_perm a =
        let seen = Array.make n false in
        Array.iter (fun i -> seen.(i) <- true) a;
        Array.for_all Fun.id seen
      in
      Alcotest.(check bool)
        (Printf.sprintf "x axis is a permutation of 0..%d" (n - 1))
        true (is_perm px);
      Alcotest.(check bool)
        (Printf.sprintf "y axis is a permutation of 0..%d" (n - 1))
        true (is_perm py);
      (* Determinism: the same seed replays the same plan. *)
      let px', py' =
        Smart_sampling.lhs_permutations (Srng.create (100 + n)) n
      in
      Alcotest.(check bool) "deterministic" true (px = px' && py = py'))
    [ 1; 2; 7; 16 ];
  Alcotest.check_raises "empty round rejected"
    (Invalid_argument "Smart_sampling.lhs_permutations: empty round")
    (fun () -> ignore (Smart_sampling.lhs_permutations (Srng.create 1) 0))

let test_lhs_strata_quota () =
  (* Every stratum receives exactly its quota of dies per round. *)
  let t = Lazy.force flow in
  with_pool ~domains:2 (fun pool ->
      let cfg =
        {
          Wafer.default_sampling_config with
          Wafer.s_method = Smart_sampling.Lhs;
          s_strata = 2;
          s_dies_per_round = 5;
          s_max_rounds = 2;
          s_ci_target = 1e-12;
        }
      in
      let r = Wafer.estimate ~pool t cfg in
      Alcotest.(check int) "strata" 4 (Array.length r.Wafer.sr_groups);
      Array.iter
        (fun g ->
          Alcotest.(check int) "quota per stratum" 10 g.Wafer.sg_dies)
        r.Wafer.sr_groups;
      Alcotest.(check int) "total dies" 40 r.Wafer.sr_dies)

(* ------------------------------------------------------------------ *)
(* Stopping rule                                                        *)

let test_stopping_rule () =
  let t = Lazy.force flow in
  with_pool ~domains:2 (fun pool ->
      let base =
        {
          Wafer.default_sampling_config with
          Wafer.s_strata = 2;
          s_dies_per_round = 4;
          s_max_rounds = 3;
        }
      in
      (* Unreachable target: the rule must not fire early, and the CI
         must still be above the target when the budget runs out. *)
      let r =
        Wafer.estimate ~pool t { base with Wafer.s_ci_target = 1e-12 }
      in
      Alcotest.(check bool) "impossible target does not converge" false
        r.Wafer.sr_converged;
      Alcotest.(check int) "budget exhausted" 3 r.Wafer.sr_rounds;
      Alcotest.(check bool) "half-width above target" true
        (r.Wafer.sr_ci_halfwidth > 1e-12);
      (* Trivial target: one round suffices, and convergence implies
         the half-width really is at or below the target. *)
      let r = Wafer.estimate ~pool t { base with Wafer.s_ci_target = 1.0 } in
      Alcotest.(check bool) "trivial target converges" true
        r.Wafer.sr_converged;
      Alcotest.(check int) "after one round" 1 r.Wafer.sr_rounds;
      Alcotest.(check bool) "half-width at or below target" true
        (r.Wafer.sr_ci_halfwidth <= 1.0);
      (* One die per stratum: no variance estimate exists, the CI is
         infinite, and the rule cannot fire no matter the target. *)
      let r =
        Wafer.estimate ~pool t
          {
            base with
            Wafer.s_dies_per_round = 1;
            s_max_rounds = 1;
            s_ci_target = 1.0;
          }
      in
      Alcotest.(check bool) "n<2 never converges" false r.Wafer.sr_converged;
      Alcotest.(check bool) "n<2 half-width is infinite" true
        (r.Wafer.sr_ci_halfwidth = infinity))

let test_undefined_interval_printed () =
  (* One die per stratum leaves every half-width undefined: the printed
     report says so in words, as the JSON writes null, and never
     prints an infinity. *)
  let t = Lazy.force flow in
  let r =
    Wafer.estimate t
      {
        Wafer.default_sampling_config with
        Wafer.s_method = Smart_sampling.Is;
        s_strata = 5;
        s_dies_per_round = 1;
        s_max_rounds = 1;
      }
  in
  let text = Format.asprintf "%a" Wafer.pp_sampling r in
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length text && (String.sub text i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "no inf printed" false (contains "inf");
  Alcotest.(check bool) "half-width printed as undefined" true
    (contains "+- undefined")

(* Every number printed before a '%' in [text]. *)
let printed_percents text =
  let is_num c = (c >= '0' && c <= '9') || c = '.' || c = '-' in
  List.filter_map
    (fun i ->
      if text.[i] <> '%' then None
      else begin
        let j = ref i in
        while !j > 0 && is_num text.[!j - 1] do decr j done;
        float_of_string_opt (String.sub text !j (i - !j))
      end)
    (List.init (String.length text) Fun.id)

let test_estimates_clipped () =
  (* Importance-weighted means of few dies leave [0, 1]: one die per
     stratum gives an island yield above 1, and the CI smoke config an
     interval past both bounds.  Reports clip them; the raw intervals
     stay as computed. *)
  let t = Lazy.force flow in
  List.iter
    (fun (strata, dies, rounds, ci_target) ->
      let r =
        Wafer.estimate t
          {
            Wafer.default_sampling_config with
            Wafer.s_method = Smart_sampling.Is;
            s_strata = strata;
            s_dies_per_round = dies;
            s_max_rounds = rounds;
            s_ci_target = ci_target;
          }
      in
      let label = Printf.sprintf "%d strata x %d dies x %d rounds" strata dies rounds in
      let y = r.Wafer.sr_yield_compensated in
      Alcotest.(check bool) (label ^ ": raw interval leaves [0, 1]") true
        (y.Wafer.mid +. y.Wafer.hw > 1.0);
      List.iter
        (fun p ->
          if p < 0.0 || p > 100.0 then Alcotest.failf "%s: printed %g%%" label p)
        (printed_percents (Format.asprintf "%a" Wafer.pp_sampling r));
      let json =
        match Json.of_string (Wafer.sampling_to_json r) with
        | Ok j -> j
        | Error e -> Alcotest.fail e
      in
      List.iter
        (fun metric ->
          match Option.bind (Json.member metric json) (Json.member "mean") with
          | Some m ->
            let m = Option.get (Json.to_float m) in
            if m < 0.0 || m > 1.0 then Alcotest.failf "%s: %s mean %g" label metric m
          | None -> Alcotest.failf "%s: no %s mean" label metric)
        [ "yield_uncompensated"; "yield_compensated"; "yield_chip_wide"; "rare" ])
    [ (5, 1, 1, 0.001); (2, 4, 3, 0.0005) ]

(* ------------------------------------------------------------------ *)
(* Bit-identity across domains                                          *)

let sampling_cfg method_ =
  {
    Wafer.default_sampling_config with
    Wafer.s_method = method_;
    s_strata = 2;
    s_dies_per_round = 4;
    s_max_rounds = 2;
    s_ci_target = 1e-12;
    s_ci_metric = Wafer.Ci_rare;
  }

let test_domain_invariance () =
  let t = Lazy.force flow in
  List.iter
    (fun method_ ->
      let cfg = sampling_cfg method_ in
      let reports =
        List.map
          (fun domains ->
            with_pool ~domains (fun pool ->
                Wafer.sampling_to_json (Wafer.estimate ~pool t cfg)))
          [ 1; 2; 4 ]
      in
      match reports with
      | [ r1; r2; r4 ] ->
        let name = Smart_sampling.method_name method_ in
        Alcotest.(check string) (name ^ ": 1 vs 2 domains") r1 r2;
        Alcotest.(check string) (name ^ ": 1 vs 4 domains") r1 r4
      | _ -> assert false)
    [ Smart_sampling.Mc; Smart_sampling.Is; Smart_sampling.Lhs ]

(* ------------------------------------------------------------------ *)
(* The estimator on [Wafer.tally] vs its round-loop oracle              *)

(* Every round of [Wafer.estimate*] is one [Wafer.tally] with the
   estimator's die source; [Sampling_oracle] is the round loop it
   replaced, pricing each IS weight on a replay of the die's stream.
   Whole reports must be byte-equal for every method, both entry points
   and both pool sizes — once at the full budget on the rare metric,
   once stopping early on yield, and once at 3 dies per round, where a
   detect batch spans two strata and a round's last batch runs two
   lanes, so a weight recorded on the wrong lane shows — and the folded
   run must count every die it ran in [wafer_sampling_dies_total] and
   detect as many dies as the oracle. *)
let test_oracle_equivalence () =
  let t = Lazy.force flow in
  let sampling_dies = Metrics.counter "wafer_sampling_dies_total" in
  let detected = Metrics.counter "postsilicon_dies_total" in
  let counting f =
    let s0 = Metrics.counter_value sampling_dies
    and d0 = Metrics.counter_value detected in
    let r = f () in
    (r, Metrics.counter_value sampling_dies - s0, Metrics.counter_value detected - d0)
  in
  let entries =
    [ ( "estimate",
        (fun pool cfg -> Wafer.estimate ~pool t cfg),
        fun pool cfg -> Sampling_oracle.estimate ~pool t cfg );
      ( "estimate_at B",
        (fun pool cfg -> Wafer.estimate_at ~pool t ~position:Position.point_b cfg),
        fun pool cfg ->
          Sampling_oracle.estimate_at ~pool t ~position:Position.point_b cfg ) ]
  in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) @@ fun () ->
  List.iter
    (fun domains ->
      with_pool ~domains (fun pool ->
          List.iter
            (fun method_ ->
              let full = sampling_cfg method_ in
              let early =
                { full with
                  Wafer.s_ci_metric = Wafer.Ci_yield;
                  s_ci_target = 0.3;
                  s_max_rounds = 4 }
              in
              List.iter
                (fun (entry, folded, oracle) ->
                  List.iter
                    (fun (budget, cfg) ->
                      let label =
                        Printf.sprintf "%s %s, %s, %d domain(s)"
                          (Smart_sampling.method_name method_) entry budget
                          domains
                      in
                      let r, counted, r_detected = counting (fun () -> folded pool cfg) in
                      let o, _, o_detected = counting (fun () -> oracle pool cfg) in
                      Alcotest.(check string) (label ^ ": report")
                        (Wafer.sampling_to_json o) (Wafer.sampling_to_json r);
                      Alcotest.(check int) (label ^ ": wafer_sampling_dies_total")
                        o.Wafer.sr_dies counted;
                      Alcotest.(check int) (label ^ ": dies detected") o_detected
                        r_detected)
                    [ ("full budget", full); ("early stop", early);
                      ("3 dies per round", { full with Wafer.s_dies_per_round = 3 }) ])
                entries)
            [ Smart_sampling.Mc; Smart_sampling.Is; Smart_sampling.Lhs ]))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* IS where the mixture is empty                                        *)

(* The tilt components at [position] for [rare], built through the
   library the way the estimator builds its mixture. *)
let tilts_at t position ~rare =
  let sta = Flow.sta t and sampler = Flow.sampler t in
  let nl = Flow.netlist t in
  Smart_sampling.tilts ~sampler ~sta
    ~base:(Pvtol_timing.Sta.nominal_delays sta)
    ~systematic:
      (Pvtol_variation.Sampler.systematic_lgates sampler (Flow.placement t)
         position)
    ~vdd:nl.Pvtol_netlist.Netlist.lib.Pvtol_stdcell.Cell.process
           .Pvtol_stdcell.Process.vdd_low
    ~clock:(Flow.clock t) ~stages:Pvtol_ssta.Scenario.analyzed_stages ~rare ()

(* At B the slowest analyzed stage already fails the clock, so the
   event ">= 1 stage violating" is deterministically common: [tilts]
   finds nothing to shift toward and the IS estimator samples plain.
   Every weight is then exactly 1, so each stratum's mean weight is 1
   and the effective sample count is the die count; and the report is
   the round-loop oracle's, whose weight replay meets no component. *)
let test_is_empty_mixture () =
  let t = Lazy.force flow in
  let rare = 1 and position = Position.point_b in
  Alcotest.(check int) "components at B, rare 1" 0
    (Smart_sampling.n_components (Smart_sampling.make (tilts_at t position ~rare)));
  let cfg =
    { (sampling_cfg Smart_sampling.Is) with Wafer.s_rare = rare; s_dies_per_round = 3 }
  in
  let r = Wafer.estimate_at t ~position cfg in
  let o = Sampling_oracle.estimate_at t ~position cfg in
  Array.iteri
    (fun g (sg : Wafer.sampling_group) ->
      Alcotest.(check int) (Printf.sprintf "group %d components" g) 0
        sg.Wafer.sg_components;
      Alcotest.(check (float 0.0)) (Printf.sprintf "group %d mean weight" g) 1.0
        sg.Wafer.sg_mean_weight)
    r.Wafer.sr_groups;
  Alcotest.(check (float 0.0)) "effective samples = dies"
    (float_of_int r.Wafer.sr_dies) r.Wafer.sr_effective_samples;
  Alcotest.(check string) "report = oracle" (Wafer.sampling_to_json o)
    (Wafer.sampling_to_json r)

(* ------------------------------------------------------------------ *)
(* lhs on the whole-wafer yield                                         *)

(* At a fixed site lhs is mc plus two permutation draws; its reason to
   exist is position-driven variance on whole-wafer means.  At one seed
   and one budget (4x4 strata x 4 dies x 2 rounds = 128 dies) it must
   give the uncompensated-yield CI a clearly smaller half-width than
   mc.  Measured on this flow at seed 7: lhs +-4.63%, mc +-7.89%, a
   ratio of 0.59; the bound leaves room for a reseeded stream, not for
   lhs falling back to mc. *)
let lhs_over_mc_bound = 0.75

let test_lhs_whole_wafer_gain () =
  let t = Lazy.force flow in
  let halfwidth method_ =
    let r =
      Wafer.estimate t
        {
          Wafer.default_sampling_config with
          Wafer.s_method = method_;
          s_strata = 4;
          s_dies_per_round = 4;
          s_max_rounds = 2;
          s_ci_metric = Wafer.Ci_yield;
          s_seed = 7;
        }
    in
    Alcotest.(check int) "dies" 128 r.Wafer.sr_dies;
    r.Wafer.sr_ci_halfwidth
  in
  let mc = halfwidth Smart_sampling.Mc and lhs = halfwidth Smart_sampling.Lhs in
  Alcotest.(check bool)
    (Printf.sprintf "lhs +-%.2f%% <= %.2f x mc +-%.2f%%" (100.0 *. lhs)
       lhs_over_mc_bound (100.0 *. mc))
    true
    (lhs <= lhs_over_mc_bound *. mc)

(* ------------------------------------------------------------------ *)
(* Validation                                                           *)

let test_rare_scenario_range () =
  (* Only the analyzed stages can violate: a rare scenario above their
     count is an event that cannot occur, and a run watching it could
     never converge. *)
  let t = Lazy.force flow in
  let stages = List.length Pvtol_ssta.Scenario.analyzed_stages in
  let cfg = { (sampling_cfg Smart_sampling.Mc) with Wafer.s_rare = stages + 1 } in
  let expected = Invalid_argument "Wafer.estimate: rare must be in 1..analyzed stages" in
  Alcotest.check_raises "estimate" expected (fun () -> ignore (Wafer.estimate t cfg));
  Alcotest.check_raises "estimate_at" expected (fun () ->
      ignore (Wafer.estimate_at t ~position:Position.point_b cfg));
  let r =
    Wafer.estimate t
      { cfg with Wafer.s_rare = stages; s_strata = 1; s_dies_per_round = 2; s_max_rounds = 1 }
  in
  Alcotest.(check int) "the analyzed-stage count itself is accepted" 2 r.Wafer.sr_dies

(* ------------------------------------------------------------------ *)
(* Slow differential oracle (PVTOL_SLOW_TESTS=1)                        *)

let slow_enabled = Sys.getenv_opt "PVTOL_SLOW_TESTS" = Some "1"

let z95 = Specfun.normal_quantile ~mu:0.0 ~sigma:1.0 0.975

(* Per-die variance of the designated estimator, recovered from the
   report's CI: hw = z * sqrt (var / n)  =>  var = n * (hw / z)^2. *)
let per_die_variance (r : Wafer.sampling_report) =
  let hw = r.Wafer.sr_rare.Wafer.hw in
  if hw = infinity then infinity
  else float_of_int r.Wafer.sr_dies *. (hw /. z95) *. (hw /. z95)

(* Fixed-site configs run the 4x4 stratum grid as 16 parallel
   substreams of the same position; total dies = 16 * dies * rounds.
   The unreachable CI target plus the positive-variance rule means the
   full budget always runs. *)
let site_cfg method_ ~dies ~rounds ~seed =
  {
    Wafer.default_sampling_config with
    Wafer.s_method = method_;
    s_strata = 4;
    s_dies_per_round = dies;
    s_max_rounds = rounds;
    s_ci_target = 1e-12;
    s_ci_metric = Wafer.Ci_rare;
    s_seed = seed;
  }

let test_differential_oracle () =
  let t = Lazy.force flow in
  let pool = Pool.shared () in
  List.iter
    (fun (name, position) ->
      (* 400 importance-sampled dies vs a 50x longer brute-force run. *)
      let is_r =
        Wafer.estimate_at ~pool t ~position
          (site_cfg Smart_sampling.Is ~dies:25 ~rounds:1 ~seed:101)
      in
      let mc_r =
        Wafer.estimate_at ~pool t ~position
          (site_cfg Smart_sampling.Mc ~dies:25 ~rounds:50 ~seed:202)
      in
      Alcotest.(check int) "is dies" 400 is_r.Wafer.sr_dies;
      Alcotest.(check int) "mc dies" 20_000 mc_r.Wafer.sr_dies;
      let p_is = is_r.Wafer.sr_rare.Wafer.mid
      and p_mc = mc_r.Wafer.sr_rare.Wafer.mid in
      let hw_is = is_r.Wafer.sr_rare.Wafer.hw
      and hw_mc = mc_r.Wafer.sr_rare.Wafer.hw in
      let tol = 3.0 *. sqrt ((hw_is *. hw_is) +. (hw_mc *. hw_mc)) in
      Alcotest.(check bool)
        (Printf.sprintf
           "%s: IS %.5f +- %.5f vs brute force %.5f +- %.5f (tol %.5f)" name
           p_is hw_is p_mc hw_mc tol)
        true
        (Float.abs (p_is -. p_mc) <= tol))
    [ ("A", Position.point_a); ("B", Position.point_b);
      ("C", Position.point_c); ("D", Position.point_d) ]

let test_variance_reduction_factor () =
  (* On the rare scenario at B the IS estimator must beat brute force
     by at least 5x in per-die variance (the acceptance criterion the
     bench section pins).  Deterministic: fixed seeds, fixed budgets. *)
  let t = Lazy.force flow in
  let pool = Pool.shared () in
  let is_r =
    Wafer.estimate_at ~pool t ~position:Position.point_b
      (site_cfg Smart_sampling.Is ~dies:25 ~rounds:15 ~seed:303)
  in
  let mc_r =
    Wafer.estimate_at ~pool t ~position:Position.point_b
      (site_cfg Smart_sampling.Mc ~dies:25 ~rounds:50 ~seed:202)
  in
  let p = mc_r.Wafer.sr_rare.Wafer.mid in
  let var_mc = p *. (1.0 -. p) in
  let var_is = per_die_variance is_r in
  let vrf = var_mc /. var_is in
  Alcotest.(check bool)
    (Printf.sprintf "VRF %.1f >= 5 (var %.2e -> %.2e)" vrf var_mc var_is)
    true (vrf >= 5.0);
  Alcotest.(check bool) "weights stay calibrated" true
    (Float.abs
       ((Array.fold_left
           (fun a g -> a +. g.Wafer.sg_mean_weight)
           0.0 is_r.Wafer.sr_groups
        /. float_of_int (Array.length is_r.Wafer.sr_groups))
       -. 1.0)
    <= 0.25)

let test_analytic_crosscheck () =
  (* The first-order analytic model gives an independent reference for
     the rare-scenario probability at B: per-stage violation tails from
     the Clark-propagated Gaussians, combined under stage independence.
     The analytic model's documented bias (first-order propagation, no
     reconvergence, no max-correlation) compounds fast in a tail
     probability — measured it sits ~6x below the simulated value at B
     — so this is an order-of-magnitude sanity band (factor of 10 both
     ways), not a tight tolerance; the brute-force diff above is the
     sharp check. *)
  let t = Lazy.force flow in
  let pool = Pool.shared () in
  let sta = Flow.sta t and sampler = Flow.sampler t in
  let clock = Flow.clock t in
  let systematic =
    Pvtol_variation.Sampler.systematic_lgates sampler (Flow.placement t)
      Position.point_b
  in
  let res = Analytic.analyze ~sta ~sampler ~systematic in
  let tails =
    List.filter_map
      (fun stage ->
        List.assoc_opt stage res.Analytic.stage_delay
        |> Option.map (fun g ->
               1.0
               -. Specfun.normal_cdf ~mu:g.Analytic.mean
                    ~sigma:(sqrt g.Analytic.var) clock))
      Pvtol_core.Compensation.analyzed
  in
  (* P(at least 2 of the independent stages violate). *)
  let p_analytic =
    match tails with
    | [ p1; p2; p3 ] ->
      (p1 *. p2 *. (1.0 -. p3))
      +. (p1 *. (1.0 -. p2) *. p3)
      +. ((1.0 -. p1) *. p2 *. p3)
      +. (p1 *. p2 *. p3)
    | _ -> Alcotest.fail "expected three analyzed stages"
  in
  let is_r =
    Wafer.estimate_at ~pool t ~position:Position.point_b
      (site_cfg Smart_sampling.Is ~dies:25 ~rounds:15 ~seed:303)
  in
  let p_is = is_r.Wafer.sr_rare.Wafer.mid in
  Alcotest.(check bool)
    (Printf.sprintf "analytic %.5f vs IS %.5f within 10x" p_analytic p_is)
    true
    (p_analytic > 0.0 && p_is > 0.0 && p_analytic /. p_is <= 10.0
    && p_is /. p_analytic <= 10.0)

let suite =
  ( "sampling",
    [
      Alcotest.test_case "weights integrate to one" `Quick
        test_weights_integrate_to_one;
      Alcotest.test_case "plain model" `Quick test_plain_model;
      Alcotest.test_case "make validation" `Quick test_make_validation;
      Alcotest.test_case "lhs permutations" `Quick test_lhs_permutations;
      Alcotest.test_case "lhs strata quota" `Quick test_lhs_strata_quota;
      Alcotest.test_case "stopping rule" `Quick test_stopping_rule;
      Alcotest.test_case "undefined interval printed" `Quick
        test_undefined_interval_printed;
      Alcotest.test_case "estimates clipped to [0, 1]" `Quick test_estimates_clipped;
      Alcotest.test_case "domain invariance" `Quick test_domain_invariance;
      Alcotest.test_case "estimator = round-loop oracle" `Quick
        test_oracle_equivalence;
      Alcotest.test_case "lhs whole-wafer gain" `Quick test_lhs_whole_wafer_gain;
      Alcotest.test_case "rare scenario range" `Quick test_rare_scenario_range;
      Alcotest.test_case "is with an empty mixture" `Quick test_is_empty_mixture;
    ]
    @
    if not slow_enabled then []
    else
      [
        Alcotest.test_case "differential oracle A-D" `Slow
          test_differential_oracle;
        Alcotest.test_case "variance reduction factor" `Slow
          test_variance_reduction_factor;
        Alcotest.test_case "analytic crosscheck" `Slow
          test_analytic_crosscheck;
      ] )
