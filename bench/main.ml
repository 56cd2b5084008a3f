(* Kernel benchmarks.

   Usage:
     bench/main.exe kernels         -- Bechamel micro-benchmarks + the
                                        telemetry-overhead and sampling
                                        calibration reports
     bench/main.exe kernels --json  -- also write BENCH_ssta.json (perf
                                        trajectory for future changes)
     bench/main.exe ... --out FILE  -- write the JSON somewhere else
     bench/main.exe --quick ...     -- scaled-down design (fast smoke run)

   The paper's tables and figures are rendered by `pvtol all` and
   `pvtol <exhibit>`.

   One Bechamel Test.make per table/figure kernel: the measured loop is
   the computational core that regenerates that exhibit (field eval for
   Fig. 2, an STA pass for Table 1's timing, a Monte-Carlo sample for
   Fig. 3 / §4.4, a corner compensation check and the level-shifter
   insertion with its ECO placement for Fig. 4, crossing analysis for
   Table 2, and a power pass for Figs. 5-6), plus the set-up layers:
   timing closure on the unsized design and the placer's
   force-directed phase, both on the quick design.  Kernel lines
   are printed sorted by name so runs diff cleanly.  End-to-end
   command timings (flow, wafer census, compare, tail yield) belong to
   perfbench/.

   Every timing is statistical: kernels report the OLS point estimate
   plus a CI half-width over the raw per-sample times, and the
   telemetry section repeats its runs and reports mean +- CI
   (Stream_stats.Welford).  The JSON file is schema-versioned
   ("schema": 2, per-kernel {ns, ci, n}) so `pvtol bench compare` can
   gate regressions against the committed baseline using the CIs
   rather than bare point estimates.  A kernel without an estimate is
   a warning and a nonzero exit, not a silent "(no estimate)". *)

module Flow = Pvtol_core.Flow
module Island = Pvtol_core.Island
module Slicing = Pvtol_core.Slicing
module Level_shifter = Pvtol_core.Level_shifter
module Sta = Pvtol_timing.Sta
module Sizing = Pvtol_timing.Sizing
module Sampler = Pvtol_variation.Sampler
module Field = Pvtol_variation.Field
module Position = Pvtol_variation.Position
module Power = Pvtol_power.Power
module Gatesim = Pvtol_power.Gatesim
module Srng = Pvtol_util.Srng
module Pool = Pvtol_util.Pool
module Metrics = Pvtol_util.Metrics
module Json = Pvtol_util.Json
module Welford = Pvtol_util.Stream_stats.Welford
module BC = Pvtol_util.Bench_compare
module MC = Pvtol_ssta.Monte_carlo
module Smart_sampling = Pvtol_ssta.Smart_sampling
module Wafer = Pvtol_core.Wafer
module Compensation = Pvtol_core.Compensation

let ctx = ref None

let context ~quick () =
  match !ctx with
  | Some c -> c
  | None ->
    let config = if quick then Flow.quick_config else Flow.default_config in
    Printf.printf "[preparing design flow%s...]\n%!" (if quick then " (quick)" else "");
    let c = Flow.prepare ~config () in
    ctx := Some c;
    c

(* ------------------------------------------------------------------ *)
(* Repeated statistical timings                                         *)

(* A throughput section repeats its timed run and reports the mean,
   the normal-theory CI half-width and the repeat count, so comparisons
   between bench files can tell a real shift from run-to-run noise. *)
type tput = { t_mean : float; t_ci : float; t_reps : int }

let tput_of w =
  let n = Welford.count w in
  {
    t_mean = Welford.mean w;
    t_ci = (if n >= 2 then Welford.ci_halfwidth w else 0.0);
    t_reps = n;
  }

let tput_json ~rate_key t =
  Json.Obj
    [
      (rate_key, Json.Float t.t_mean);
      ("ci", Json.Float t.t_ci);
      ("n", Json.Int t.t_reps);
    ]

let pp_tput t = Printf.sprintf "%10.1f ± %.1f (n=%d)" t.t_mean t.t_ci t.t_reps

(* ------------------------------------------------------------------ *)
(* Telemetry overhead: MC throughput with metrics off vs on             *)

type telemetry_report = {
  tel_samples : int;
  tel_disabled : tput;  (* samples / second, metrics disabled *)
  tel_enabled : tput;   (* samples / second, metrics enabled *)
}

let telemetry_overhead_pct r =
  100.0 *. (1.0 -. (r.tel_enabled.t_mean /. r.tel_disabled.t_mean))

(* Half-width of the overhead percentage by first-order error
   propagation on the ratio of the two means. *)
let telemetry_noise_pct r =
  let ratio = r.tel_enabled.t_mean /. r.tel_disabled.t_mean in
  let rel a = a.t_ci /. a.t_mean in
  100.0 *. ratio
  *. sqrt (((rel r.tel_enabled) ** 2.0) +. ((rel r.tel_disabled) ** 2.0))

let telemetry_within_noise r =
  Float.abs (telemetry_overhead_pct r) <= telemetry_noise_pct r

let telemetry_throughput ~quick () =
  let t = context ~quick () in
  let samples = (Flow.config t).Flow.mc_samples in
  let seed = (Flow.config t).Flow.mc_seed in
  let pool = Pool.shared () in
  let time_run () =
    let t0 = Unix.gettimeofday () in
    let r =
      List.hd
        (MC.run
           ~config:{ MC.samples; seed }
           ~pool ~sampler:(Flow.sampler t) ~sta:(Flow.sta t)
           ~placement:(Flow.placement t) [ MC.job Position.point_b ])
    in
    let dt = Unix.gettimeofday () -. t0 in
    (* Both modes must do the same amount of work for the comparison to
       mean anything. *)
    if Array.length r.MC.worst_samples <> samples then
      failwith "telemetry: sample count drifted between modes";
    float_of_int samples /. dt
  in
  let was = Metrics.enabled () in
  (* Warm BOTH code paths before any timed run (a cold first mode would
     be charged its page faults and lazy inits — historically this made
     "enabled" look faster than "disabled").  Then interleave the
     rounds so slow drift (turbo, thermal) hits both modes equally, and
     accumulate every round into a Welford per mode — the CI half-width
     is what lets the report say "within noise" instead of printing a
     meaningless negative overhead. *)
  Metrics.set_enabled false;
  ignore (time_run ());
  Metrics.set_enabled true;
  ignore (time_run ());
  let w_disabled = Welford.create () and w_enabled = Welford.create () in
  let measure enabled w =
    Metrics.set_enabled enabled;
    Welford.add w (time_run ())
  in
  for round = 1 to 6 do
    (* Alternate which mode goes first — an even round count, so each
       mode leads exactly half the rounds and within-round drift
       cancels. *)
    if round land 1 = 1 then (
      measure false w_disabled;
      measure true w_enabled)
    else (
      measure true w_enabled;
      measure false w_disabled)
  done;
  Metrics.set_enabled was;
  {
    tel_samples = samples;
    tel_disabled = tput_of w_disabled;
    tel_enabled = tput_of w_enabled;
  }

let print_telemetry_report r =
  Printf.printf
    "\nTelemetry overhead (Monte-Carlo, %d samples):\n\
    \  metrics disabled  %s samples/s\n\
    \  metrics enabled   %s samples/s\n\
    \  overhead: %s\n%!"
    r.tel_samples (pp_tput r.tel_disabled) (pp_tput r.tel_enabled)
    (if telemetry_within_noise r then
       Printf.sprintf "within noise (%.2f%% ± %.2f%%)"
         (telemetry_overhead_pct r) (telemetry_noise_pct r)
     else
       Printf.sprintf "%.2f%% (noise ±%.2f%%)" (telemetry_overhead_pct r)
         (telemetry_noise_pct r))

(* ------------------------------------------------------------------ *)
(* Sampling calibration: samples-to-CI-target, mc vs is                 *)

(* Statistical (not timing) calibration of the variance-reduced
   estimators on the paper's rare event — P(>= 2 islands violating) at
   die position B.  Each method runs a pinned budget at a pinned seed
   (the same budgets the PVTOL_SLOW_TESTS oracle uses, so the numbers
   agree), and the per-die variance recovered from the report's CI
   converts into "dies needed for a +-0.1% half-width":
   [n_target = n * (hw / target)^2].  The section is deterministic run
   to run — it pins the variance-reduction factor, not a timing.  lhs
   has no line: at a fixed site it is mc plus two permutation draws,
   and its gain is on whole-wafer means (pinned in the test suite). *)

type sampling_line = {
  sl_method : string;
  sl_dies : int;
  sl_rare : float;
  sl_hw : float;
  sl_to_target : float;  (* dies needed for hw = sc_target *)
}

type sampling_calibration = {
  sc_target : float;
  sc_lines : sampling_line list;
  sc_vrf : float;  (* per-die variance ratio, mc / is *)
}

let sampling_calibration ~quick () =
  let t = context ~quick () in
  let pool = Pool.shared () in
  let target = 0.001 in
  let run name method_ ~rounds ~seed =
    let r =
      Wafer.estimate_at ~pool t ~position:Position.point_b
        {
          Wafer.default_sampling_config with
          Wafer.s_method = method_;
          s_strata = 4;
          s_dies_per_round = 25;
          s_max_rounds = rounds;
          s_ci_target = 1e-12;
          s_ci_metric = Wafer.Ci_rare;
          s_seed = seed;
        }
    in
    let hw = r.Wafer.sr_rare.Wafer.hw in
    {
      sl_method = name;
      sl_dies = r.Wafer.sr_dies;
      sl_rare = r.Wafer.sr_rare.Wafer.mid;
      sl_hw = hw;
      sl_to_target = float_of_int r.Wafer.sr_dies *. (hw /. target) ** 2.0;
    }
  in
  let mc = run "mc" Smart_sampling.Mc ~rounds:50 ~seed:202 in
  let is = run "is" Smart_sampling.Is ~rounds:15 ~seed:303 in
  {
    sc_target = target;
    sc_lines = [ mc; is ];
    sc_vrf = mc.sl_to_target /. is.sl_to_target;
  }

let print_sampling_calibration s =
  Printf.printf
    "\nSampling calibration at position B (rare scenario, +-%.1f%% CI \
     target):\n%!"
    (100.0 *. s.sc_target);
  List.iter
    (fun l ->
      Printf.printf
        "  %-4s %6d dies   P=%.5f +- %.5f   -> %9.0f dies to target\n%!"
        l.sl_method l.sl_dies l.sl_rare l.sl_hw l.sl_to_target)
    s.sc_lines;
  Printf.printf "  variance reduction (is vs mc): %.2fx\n%!" s.sc_vrf

(* ------------------------------------------------------------------ *)
(* Bechamel kernels                                                     *)

(* MC-related kernels carry [per_run > 1]: one staged run covers a full
   lane block, and the reported estimate is divided by [per_run] so
   every fig3/table1 line stays ns per SAMPLE.  [fig3/mc-chunk-a-d] is
   ns per sample for all four positions of the fused run: set it
   against four times [fig3/mc-sample-batched]. *)
let kernel_estimates ~quick () =
  let open Bechamel in
  let open Toolkit in
  let t = context ~quick () in
  let sta = Flow.sta t in
  let base = Sta.nominal_delays sta in
  let sampler = Flow.sampler t in
  let placement = Flow.placement t in
  let systematic = Sampler.systematic_lgates sampler placement Position.point_a in
  let n = Array.length base in
  let ws = Sta.workspace sta in
  let low =
    (Flow.netlist t).Pvtol_netlist.Netlist.lib.Pvtol_stdcell.Cell.process
      .Pvtol_stdcell.Process.vdd_low
  in
  let field = Field.default in
  (* One island corner check at A on the scale tables of its target. *)
  let corner_check =
    Slicing.corner_check ~sta ~sampler ~clock:(Flow.clock t)
      ~systematic
  in
  (* The vertical islands, forced before any timing starts. *)
  let vertical = (Flow.islands t Island.Vertical).Slicing.partition in
  (* Batched-kernel scratch: one block of [lanes] samples per run. *)
  let lanes = 32 in
  let bws = Sta.workspace ~lanes sta in
  let bdelays = Array.make (n * lanes) 0.0 in
  let gauss = Array.make (lanes * n) 0.0 in
  let brng = Srng.create 99 in
  let batch = Sampler.batch sampler ~base ~systematic ~vdd:(fun _ -> low) in
  (* One chunk of the fused run at A-D: one draw, then each position's
     scale and STA pass. *)
  let batches_a_d =
    List.map
      (fun pos ->
        Sampler.batch sampler ~base
          ~systematic:(Sampler.systematic_lgates sampler placement pos)
          ~vdd:(fun _ -> low))
      Position.named
  in
  (* Compensation-strategy kernels: one failing die is drawn up-front
     at the worst corner (retrying a few draws so the knobs have
     violations to chase), then each kernel re-applies its strategy to
     that same die.  The applies re-derive everything from the scratch's
     delay vectors, so repeated runs are deterministic; the detect
     kernel gets its own scratch and RNG so its iterations cannot
     disturb the pinned die; the batch kernel draws four dies into its
     lanes and detects them in one pass, reported per die.  Chip-wide
     gets a scratch of its own with the same die, which the island
     settle never touches, so it times the stand-alone pass rather than
     reading the settle's all-high lane. *)
  let comp_ctx = Compensation.context t in
  let comp_v = Flow.variant t Island.Vertical in
  let comp_sys = Compensation.systematic comp_ctx Position.point_a in
  let pinned_die sc =
    let comp_rng = Srng.create 7 in
    let rec draw n d =
      if d.Compensation.violating > 0 || n >= 50 then d
      else
        draw (n + 1)
          (Compensation.detect comp_ctx sc ~systematic:comp_sys comp_rng)
    in
    draw 0 (Compensation.detect comp_ctx sc ~systematic:comp_sys comp_rng)
  in
  let comp_sc = Compensation.scratch comp_ctx in
  let comp_d = pinned_die comp_sc in
  let cw_sc = Compensation.scratch comp_ctx in
  let cw_d = pinned_die cw_sc in
  let comp_apply choice =
    (Compensation.build t comp_ctx comp_v choice).Compensation.fresh_apply ()
  in
  let apply_vi = comp_apply Compensation.Vi in
  let apply_cw = comp_apply Compensation.Chipwide in
  let apply_skew = comp_apply Compensation.Skew in
  let apply_buf = comp_apply Compensation.Buffers in
  let det_sc = Compensation.scratch comp_ctx in
  let det_rng = Srng.create 11 in
  (* Enough cycles per run that the simulation, not its one-off
     flattening of the netlist, dominates; reported per cycle. *)
  let gatesim_cycles = 16 in
  (* Timing closure as the sizing stage first runs it: the timing graph
     of the unsized design netlist on its placement's wire lengths
     (built inside the timed run), the stage budgets and the initial
     clock.  Always on the quick design, since a full-size run takes
     seconds. *)
  let sizing_flow =
    if quick then t else Flow.prepare ~config:Flow.quick_config ()
  in
  let sizing_design = Flow.design sizing_flow in
  let sizing_wire =
    Array.get (Pvtol_place.Placement.wire_lengths (Flow.placement sizing_flow))
  in
  let sizing_clock = (Flow.sizing sizing_flow).Sizing.clock in
  (* The placement stage's force-directed phase with the flow's
     parameters, on the same quick design. *)
  let place_config = Flow.config sizing_flow in
  let place_netlist = sizing_design.Pvtol_vex.Vex_core.netlist in
  let place_floorplan =
    Pvtol_place.Floorplan.create ~utilization:Flow.utilization
      ~cell_area:(Pvtol_netlist.Netlist.area place_netlist) ()
  in
  let tests =
    [
      ( "fig2/field-eval-4096", 1,
        fun () ->
          let acc = ref 0.0 in
          for i = 0 to 63 do
            for j = 0 to 63 do
              acc :=
                !acc
                +. Field.systematic_nm field
                     ~x_mm:(float_of_int i /. 4.0)
                     ~y_mm:(float_of_int j /. 4.0)
            done
          done;
          ignore !acc );
      ( "table1/sta-pass", 1,
        fun () -> ignore (Sta.analyze sta ~delays:base) );
      ( "table1/sta-pass-into", 1,
        fun () -> Sta.analyze_into sta ws ~delays:base );
      ( "table1/sta-batch-into", lanes,
        fun () -> Sta.analyze_into sta bws ~delays:bdelays );
      ( "fig3/mc-sample-batched", lanes,
        fun () ->
          Srng.fill_gaussians brng gauss ~pos:0 ~len:(lanes * n);
          Sampler.scale_delays_batch batch ~gauss ~samples:lanes ~stride:lanes
            ~out:bdelays;
          Sta.analyze_into sta bws ~delays:bdelays );
      ( "fig3/mc-chunk-a-d", lanes,
        fun () ->
          Srng.fill_gaussians brng gauss ~pos:0 ~len:(lanes * n);
          List.iter
            (fun b ->
              Sampler.scale_delays_batch b ~gauss ~samples:lanes ~stride:lanes
                ~out:bdelays;
              Sta.analyze_into sta bws ~delays:bdelays)
            batches_a_d );
      ( "fig4/corner-check", 1, fun () -> ignore (corner_check ~raised:(fun _ -> false)) );
      ( "fig4/eco-insert", 1,
        fun () ->
          ignore
            (Level_shifter.insert vertical placement
               (Flow.netlist t)) );
      ( "table2/crossing-analysis", 1,
        fun () ->
          ignore
            (Level_shifter.count_crossings
               (Flow.variant t Island.Vertical).Flow.slicing.Slicing.partition
               placement (Flow.netlist t)) );
      ( "fig5-6/power-pass", 1,
        fun () ->
          ignore
            (Power.analyze
               ~vdd:(fun _ -> low)
               ~activity:(Flow.activity t)
               ~wire_length:(fun nid ->
                 Pvtol_place.Placement.wire_length placement nid)
               ~clock_ns:(Flow.clock t) (Flow.netlist t)) );
      ( "compare/detect", 1,
        fun () ->
          ignore
            (Compensation.detect comp_ctx det_sc ~systematic:comp_sys det_rng) );
      ( "compare/detect-batch", Compensation.batch_lanes,
        fun () ->
          for k = 0 to Compensation.batch_lanes - 1 do
            Compensation.draw comp_ctx det_sc k ~systematic:comp_sys det_rng
          done;
          Compensation.detect_lanes comp_ctx det_sc Compensation.batch_lanes );
      ( "compare/apply-vi", 1, fun () -> ignore (apply_vi comp_sc comp_d) );
      ( "compare/apply-chipwide", 1, fun () -> ignore (apply_cw cw_sc cw_d) );
      ( "compare/apply-skew", 1, fun () -> ignore (apply_skew comp_sc comp_d) );
      ( "compare/apply-buffers", 1,
        fun () -> ignore (apply_buf comp_sc comp_d) );
      ( "gatesim/cycle", gatesim_cycles,
        fun () ->
          ignore
            (Gatesim.run ~cycles:gatesim_cycles (Flow.netlist t)
               (Gatesim.random_stimulus ~seed:5)) );
      ( "table1/sizing", 1,
        fun () ->
          ignore
            (Sizing.close_timing ~clock:sizing_clock
               (Sta.build sizing_design.Pvtol_vex.Vex_core.netlist
                  ~wire_length:sizing_wire
                  ~capture:sizing_design.Pvtol_vex.Vex_core.capture_stage)) );
      ( "place/global", 1,
        fun () ->
          ignore
            (Pvtol_place.Placer.global_only
               ~iterations:place_config.Flow.place_iterations
               ~seed:Flow.place_seed place_netlist place_floorplan) );
    ]
  in
  let per_run = List.map (fun (name, d, _) -> (name, d)) tests in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
  let instances = [ Instance.monotonic_clock ] in
  let clock_label = Measure.label Instance.monotonic_clock in
  let rows =
    List.concat_map
      (fun (name, _, fn) ->
        let raw = Benchmark.all cfg instances (Test.make ~name (Staged.stage fn)) in
        let results =
          Analyze.all
            (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
            Instance.monotonic_clock raw
        in
        Hashtbl.fold
          (fun name result acc ->
            let divisor =
              float_of_int (Option.value ~default:1 (List.assoc_opt name per_run))
            in
            (* The OLS slope is the point estimate; the spread of the
               raw per-sample ns/run values is the noise scale, so the
               per-kernel CI half-width is what `pvtol bench compare`
               gates regressions on. *)
            let w = Welford.create () in
            (match Hashtbl.find_opt raw name with
            | Some b ->
              Array.iter
                (fun m ->
                  let runs = Measurement_raw.run m in
                  if runs > 0.0 then
                    Welford.add w
                      (Measurement_raw.get ~label:clock_label m /. runs))
                b.Benchmark.lr
            | None -> ());
            let n = Welford.count w in
            let ci =
              let hw = if n >= 2 then Welford.ci_halfwidth w /. divisor else 0.0 in
              if Float.is_finite hw then hw else 0.0
            in
            let point =
              match Bechamel.Analyze.OLS.estimates result with
              | Some (est :: _) -> Some (est /. divisor)
              | _ when n >= 1 -> Some (Welford.mean w /. divisor)
              | _ -> None
            in
            (* The shared JSON emitter rejects non-finite numbers; an
               estimate that is NaN/inf is no estimate at all. *)
            let point =
              Option.bind point (fun e ->
                  if Float.is_finite e then Some e else None)
            in
            (name, Option.map (fun ns -> { BC.ns; ci; n }) point) :: acc)
          results [])
      tests
  in
  (* Hashtbl.fold order is unspecified: sort by kernel name so the
     report is stable run to run. *)
  List.sort (fun (a, _) (b, _) -> String.compare a b) rows

(* Schema 2: every kernel line is {ns, ci, n} (or null), the
   throughput section carries its CI, so `pvtol bench compare` can gate
   regressions statistically instead of on bare point estimates. *)
let bench_json rows tel smp =
  let kernels =
    List.map
      (fun (name, est) ->
        ( name,
          match est with
          | None -> Json.Null
          | Some e ->
            Json.Obj
              [
                ("ns", Json.Float e.BC.ns);
                ("ci", Json.Float e.BC.ci);
                ("n", Json.Int e.BC.n);
              ] ))
      rows
  in
  Json.Obj
    [
      ("schema", Json.Int 2);
      ("kernels", Json.Obj kernels);
      ( "telemetry",
        Json.Obj
          [
            ("samples", Json.Int tel.tel_samples);
            ("disabled", tput_json ~rate_key:"samples_per_sec" tel.tel_disabled);
            ("enabled", tput_json ~rate_key:"samples_per_sec" tel.tel_enabled);
            ("overhead_pct", Json.Float (telemetry_overhead_pct tel));
            ("noise_pct", Json.Float (telemetry_noise_pct tel));
            ("within_noise", Json.Bool (telemetry_within_noise tel));
          ] );
      ( "sampling",
        Json.Obj
          ([
             ("position", Json.Str "B");
             ("rare_scenario", Json.Int 2);
             ("ci_target", Json.Float smp.sc_target);
           ]
          @ List.map
              (fun l ->
                ( l.sl_method,
                  Json.Obj
                    [
                      ("dies", Json.Int l.sl_dies);
                      ("rare", Json.Float l.sl_rare);
                      ("ci_halfwidth", Json.Float l.sl_hw);
                      ("dies_to_target", Json.Float l.sl_to_target);
                    ] ))
              smp.sc_lines
          @ [ ("vrf_is_over_mc", Json.Float smp.sc_vrf) ]) );
    ]

let write_json ~file rows tel smp =
  Json.write_file file (bench_json rows tel smp);
  Printf.printf "[wrote %s]\n%!" file

let print_kernel_rows rows =
  Printf.printf
    "\nKernel micro-benchmarks (Bechamel, ns per sample, mean ± 95%%-CI):\n%!";
  List.iter
    (fun (name, est) ->
      match est with
      | Some e ->
        Printf.printf "  %-28s %12.0f ns/run  ± %6.0f  (n=%d)\n%!" name
          e.BC.ns e.BC.ci e.BC.n
      | None -> Printf.printf "  %-28s (no estimate)\n%!" name)
    rows

(* A kernel without an estimate is a hole in the perf trajectory the
   observatory tracks: warn on stderr and make the run exit nonzero
   (after the JSON report has been written, so partial data is kept). *)
let warn_missing rows =
  let missing =
    List.filter_map (fun (n, e) -> if e = None then Some n else None) rows
  in
  List.iter
    (fun n ->
      Printf.eprintf "bench: warning: kernel %s produced no estimate\n%!" n)
    missing;
  missing <> []

let kernels ~quick ~json ~out () =
  let rows = kernel_estimates ~quick () in
  print_kernel_rows rows;
  let tel = telemetry_throughput ~quick () in
  print_telemetry_report tel;
  let smp = sampling_calibration ~quick () in
  print_sampling_calibration smp;
  if json then write_json ~file:out rows tel smp;
  if warn_missing rows then 1 else 0

(* ------------------------------------------------------------------ *)

let usage =
  "usage: bench/main.exe kernels [--quick] [--json] [--out FILE]\n\
   (the paper's exhibits: pvtol all, pvtol <exhibit>)\n"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  let json = List.mem "--json" args in
  let rec extract_out acc = function
    | "--out" :: file :: rest -> (file, List.rev_append acc rest)
    | x :: rest -> extract_out (x :: acc) rest
    | [] -> ("BENCH_ssta.json", List.rev acc)
  in
  let out, args = extract_out [] args in
  let args = List.filter (fun a -> a <> "--quick" && a <> "--json") args in
  match args with
  | [ "kernels" ] -> exit (kernels ~quick ~json ~out ())
  | _ ->
    prerr_string usage;
    exit 1
