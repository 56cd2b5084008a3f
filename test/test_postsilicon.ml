(* Unit tests for the post-silicon die loop ([Compensation.detect] plus
   the [Postsilicon.kernel] island and chip-wide strategies) and the
   wafer-scale census built on it ([Wafer]).  The study numbers of
   [Postsilicon.run] are pinned bit-exactly: no refactor of the die
   loop or the sweep may change the physics of the original diagonal
   exhibit, and a serial replay pins every census cell. *)

module Flow = Pvtol_core.Flow
module Island = Pvtol_core.Island
module Postsilicon = Pvtol_core.Postsilicon
module Compensation = Pvtol_core.Compensation
module Experiments = Pvtol_core.Experiments
module Slicing = Pvtol_core.Slicing
module Wafer = Pvtol_core.Wafer
module Power = Pvtol_power.Power
module Position = Pvtol_variation.Position
module Pool = Pvtol_util.Pool
module Srng = Pvtol_util.Srng
module Stats = Pvtol_util.Stats
module Welford = Pvtol_util.Stream_stats.Welford
module P2 = Pvtol_util.Stream_stats.P2
module Counter = Pvtol_util.Stream_stats.Counter

let env = Test_extensions.env

let check_bits what expected got =
  if expected <> got then
    Alcotest.failf "%s: expected %h, got %h" what expected got

(* Equality of two values with every float compared by its bits. *)
let same_bits a b =
  Marshal.(to_string a [ No_sharing ] = to_string b [ No_sharing ])

(* --- golden pin of the diagonal study (quick config, vertical) --- *)

(* Captured from the pre-kernel-refactor implementation; [run] must
   reproduce it bit-for-bit. *)
let golden_chips =
  (* (violating, detected, raised) per chip, in sample order *)
  [ (0, 0, 0); (1, 1, 2); (0, 0, 0); (0, 0, 0); (1, 1, 2); (0, 0, 0);
    (2, 2, 3); (1, 1, 2); (0, 0, 0); (0, 0, 0); (1, 1, 1); (1, 1, 2) ]

let test_run_golden () =
  let t, v = Lazy.force env in
  let s = Postsilicon.run ~n_chips:12 ~seed:3 t v in
  check_bits "yield uncompensated" 0x1p-1 s.Postsilicon.yield_uncompensated;
  check_bits "yield compensated" 0x1p+0 s.Postsilicon.yield_compensated;
  check_bits "yield chip-wide" 0x1p+0 s.Postsilicon.yield_chip_wide;
  check_bits "mean raised" 0x1p+0 s.Postsilicon.mean_raised;
  check_bits "mean islands power" 0x1.630982023ad44p+2
    s.Postsilicon.mean_power_islands_mw;
  check_bits "mean chip-wide power" 0x1.1de9363ad5505p+2
    s.Postsilicon.mean_power_chip_wide_mw;
  Alcotest.(check (list (triple int int int)))
    "per-chip (violating, detected, raised)" golden_chips
    (List.map
       (fun (c : Postsilicon.chip) ->
         (c.Postsilicon.violating, c.Postsilicon.detected, c.Postsilicon.raised))
       s.Postsilicon.chips);
  (* The die positions come from the same RNG stream as the Lgate
     draws: pin two of them so the draw protocol can never drift. *)
  let fracs =
    List.map (fun (c : Postsilicon.chip) -> c.Postsilicon.diagonal_frac)
      s.Postsilicon.chips
  in
  check_bits "chip 0 position" 0x1.a1770cd55c65p-1 (List.nth fracs 0);
  check_bits "chip 6 position" 0x1.0dd2ba46af79p-3 (List.nth fracs 6)

(* --- die-loop invariants over a simulated population --- *)

(* Simulate a small population at several positions (both diagonal and
   off-diagonal) through the kernel's strategies: per die one
   [Compensation.detect], then the island and chip-wide applies. *)
let simulate_population () =
  let t, v = Lazy.force env in
  let k = Postsilicon.kernel t v in
  let ctx = k.Postsilicon.ctx in
  let sc = Compensation.scratch ctx in
  let vi = k.Postsilicon.vi.Compensation.fresh_apply () in
  let cw = k.Postsilicon.cw.Compensation.fresh_apply () in
  let positions =
    [ Position.point_a; Position.point_b; Position.point_d;
      Position.at_xy ~x_frac:0.1 ~y_frac:0.9 ();
      Position.at_xy ~x_frac:0.9 ~y_frac:0.1 () ]
  in
  ( k,
    List.concat_map
      (fun pos ->
        let systematic = Compensation.systematic ctx pos in
        let rng = Srng.create 11 in
        List.init 6 (fun _ ->
            let d = Compensation.detect ctx sc ~systematic rng in
            let ovi = vi sc d in
            (d, ovi, cw sc d)))
      positions )

let test_detection_equals_violation () =
  (* Ideal sensors: the reported scenario is the number of analyzed
     stages failing at the low supply (the paper's Razor subset
     monitors every path that can become critical, so it detects the
     same scenario) — zero exactly when the worst low-supply stage
     delay meets the clock.  The study reports that count as both the
     detected and the violating scenario. *)
  let t, v = Lazy.force env in
  let k, dies = simulate_population () in
  let clock = Compensation.clock k.Postsilicon.ctx in
  List.iter
    (fun ((d : Compensation.detect), _, _) ->
      Alcotest.(check bool) "no violation iff worst low delay meets clock"
        (d.Compensation.worst_low_ns <= clock +. 1e-12)
        (d.Compensation.violating = 0);
      Alcotest.(check bool) "violating <= analyzed stages" true
        (d.Compensation.violating <= List.length Compensation.analyzed))
    dies;
  List.iter
    (fun (c : Postsilicon.chip) ->
      Alcotest.(check int) "detected = violating" c.Postsilicon.violating
        c.Postsilicon.detected)
    (Postsilicon.run ~n_chips:12 ~seed:3 t v).Postsilicon.chips

let test_raised_monotonicity () =
  let t, v = Lazy.force env in
  let k, dies = simulate_population () in
  let n = k.Postsilicon.vi.Compensation.max_knob in
  List.iter
    (fun ((d : Compensation.detect), (vi : Compensation.outcome), _) ->
      (* The closed loop starts at the detected scenario and only ever
         escalates, never past the island count. *)
      Alcotest.(check bool) "raised >= min detected n" true
        (vi.Compensation.knob >= min d.Compensation.violating n);
      Alcotest.(check bool) "raised <= n_islands" true
        (vi.Compensation.knob <= n);
      if d.Compensation.violating = 0 then begin
        Alcotest.(check int) "passing die raises nothing" 0
          vi.Compensation.knob;
        Alcotest.(check bool) "passing die is compensated" true
          vi.Compensation.meets
      end)
    dies;
  (* More islands raised can only add power. *)
  let power raised =
    Power.total_mw
      (Flow.power_at t ~position:Position.point_b
         (Flow.Islands (v.Flow.direction, raised)))
        .Power.total
  in
  let rec mono r = r >= n || (power r <= power (r + 1) && mono (r + 1)) in
  Alcotest.(check bool) "power monotone in raised islands" true (mono 0);
  Alcotest.(check bool) "baseline is the 0-raised power" true
    (Compensation.power_baseline_mw k.Postsilicon.ctx <= power 0 +. 1e-9)

let test_chip_wide_subsumes_islands () =
  (* Chip-wide adaptation raises every cell the islands scheme raises
     (and more): any die the islands fix, 1.2V-everywhere fixes too. *)
  let _, dies = simulate_population () in
  List.iter
    (fun (_, (vi : Compensation.outcome), (cw : Compensation.outcome)) ->
      if vi.Compensation.meets then
        Alcotest.(check bool) "compensated => chip-wide meets" true
          cw.Compensation.meets)
    dies

let test_kernel_protocol_matches_run () =
  (* Replaying [run]'s RNG protocol (one uniform for the die position,
     then detect and the two applies) through the public kernel
     reproduces the study chip-for-chip. *)
  let t, v = Lazy.force env in
  let s = Postsilicon.run ~n_chips:8 ~seed:5 t v in
  let k = Postsilicon.kernel t v in
  let ctx = k.Postsilicon.ctx in
  let sc = Compensation.scratch ctx in
  let vi = k.Postsilicon.vi.Compensation.fresh_apply () in
  let cw = k.Postsilicon.cw.Compensation.fresh_apply () in
  let rng = Srng.create 5 in
  List.iter
    (fun (c : Postsilicon.chip) ->
      let frac = Srng.uniform rng in
      let systematic =
        Compensation.systematic ctx (Position.at_fraction frac)
      in
      let d = Compensation.detect ctx sc ~systematic rng in
      let ovi = vi sc d in
      let ocw = cw sc d in
      check_bits "die position" c.Postsilicon.diagonal_frac frac;
      Alcotest.(check (triple int int int))
        "die record matches study chip"
        (c.Postsilicon.violating, c.Postsilicon.detected, c.Postsilicon.raised)
        (d.Compensation.violating, d.Compensation.violating,
         ovi.Compensation.knob);
      Alcotest.(check (triple bool bool bool))
        "die verdicts match study chip"
        (c.Postsilicon.meets_uncompensated, c.Postsilicon.meets_compensated,
         c.Postsilicon.meets_chip_wide)
        (d.Compensation.violating = 0, ovi.Compensation.meets,
         ocw.Compensation.meets))
    s.Postsilicon.chips

let test_diagonal_position_equivalence () =
  (* [at_xy f f] is the same physical die position as [at_fraction f]:
     identical RNG stream => bit-identical die. *)
  let t, v = Lazy.force env in
  let k = Postsilicon.kernel t v in
  let ctx = k.Postsilicon.ctx in
  let sc = Compensation.scratch ctx in
  let vi = k.Postsilicon.vi.Compensation.fresh_apply () in
  let cw = k.Postsilicon.cw.Compensation.fresh_apply () in
  let die systematic =
    let d = Compensation.detect ctx sc ~systematic (Srng.create 21) in
    let ovi = vi sc d in
    (d, ovi, cw sc d)
  in
  List.iter
    (fun f ->
      let sys_diag = Compensation.systematic ctx (Position.at_fraction f) in
      let sys_xy =
        Compensation.systematic ctx (Position.at_xy ~x_frac:f ~y_frac:f ())
      in
      Alcotest.(check bool) "identical systematic arrays" true
        (sys_diag = sys_xy);
      Alcotest.(check bool) "identical dies" true (die sys_diag = die sys_xy))
    [ 0.0; 0.3; 1.0 ]

let test_exhibit_histogram () =
  (* The post-silicon exhibit's histogram line counts each chip of the
     default study under the scenario its sensors detected. *)
  let t, v = Lazy.force env in
  let s = Postsilicon.run t v in
  let expected = Array.make 4 0 in
  List.iter
    (fun (c : Postsilicon.chip) ->
      let i = min 3 c.Postsilicon.detected in
      expected.(i) <- expected.(i) + 1)
    s.Postsilicon.chips;
  let prefix = "dies per detected scenario:" in
  let line =
    match
      List.find_opt
        (fun l -> String.starts_with ~prefix (String.trim l))
        (String.split_on_char '\n' (Experiments.postsilicon_study t))
    with
    | Some l -> String.trim l
    | None -> Alcotest.fail "exhibit prints no scenario histogram"
  in
  let rest =
    let n = String.length prefix in
    String.sub line n (String.length line - n)
  in
  let printed = Array.make 4 (-1) in
  let rec parse = function
    | i :: "VI:" :: n :: tl ->
      printed.(int_of_string i) <- int_of_string n;
      parse tl
    | [] -> ()
    | _ -> Alcotest.failf "unparsable histogram line %S" line
  in
  parse (List.filter (( <> ) "") (String.split_on_char ' ' rest));
  Alcotest.(check (array int)) "dies per detected scenario" expected printed

(* --- wafer sweep --- *)

let wafer_cfg =
  { Wafer.default_config with Wafer.nx = 3; ny = 2; dies_per_cell = 5 }

let test_wafer_cell_independence () =
  (* The census oracle.  Every cell of a small two-field census is
     recomputed serially from (seed, field, ix, iy) alone — detect, then
     the island and chip-wide applies, field-major — into the test's own
     Welford, P-square and Counter accumulators, with die powers read
     from the flow's power stages.  Every cell field and the wafer
     totals must match the sweep bit for bit. *)
  let t, v = Lazy.force env in
  let cfg = { wafer_cfg with Wafer.dies_per_cell = 3; fields = 2 } in
  let s = Wafer.run t v cfg in
  let k = Postsilicon.kernel t v in
  let ctx = k.Postsilicon.ctx in
  let sc = Compensation.scratch ctx in
  let vi = k.Postsilicon.vi.Compensation.fresh_apply () in
  let cw = k.Postsilicon.cw.Compensation.fresh_apply () in
  let n =
    Array.length
      (Flow.islands t v.Flow.direction).Slicing.partition.Island.islands
  in
  let power supply =
    Power.total_mw
      (Flow.power_at t ~position:Position.point_b supply).Power.total
  in
  let baseline = power Flow.Baseline_low in
  let chip_wide = power Flow.Chip_wide_high in
  (* Wafer totals: the per-cell accumulators merged row-major. *)
  let t_raised = Welford.create () and t_isl = Welford.create () in
  let t_chip = Welford.create () and t_delay = Welford.create () in
  let t_scen = Counter.create (n + 1) in
  let t_unc = ref 0 and t_comp = ref 0 and t_cw = ref 0 in
  let frac count dies = float_of_int count /. float_of_int dies in
  let raised_sum = ref 0 in
  let cells =
    Array.init (cfg.Wafer.nx * cfg.Wafer.ny) (fun c ->
        let ix = c mod cfg.Wafer.nx and iy = c / cfg.Wafer.nx in
        let systematic =
          Compensation.systematic ctx (Wafer.cell_position cfg ~ix ~iy)
        in
        let raised = Welford.create () and isl = Welford.create () in
        let chip = Welford.create () and delay = Welford.create () in
        let p50 = P2.create 0.5 and p90 = P2.create 0.9 in
        let scen = Counter.create (n + 1) in
        let raised_c = Counter.create (n + 1) in
        let unc = ref 0 and comp = ref 0 and cwm = ref 0 in
        for field = 0 to cfg.Wafer.fields - 1 do
          let rng = Srng.create (Wafer.cell_seed cfg ~field ~ix ~iy) in
          for die = 1 to cfg.Wafer.dies_per_cell do
            let label =
              Printf.sprintf "cell %d,%d field %d die %d" ix iy field die
            in
            let d = Compensation.detect ctx sc ~systematic rng in
            let ovi = vi sc d in
            let ocw = cw sc d in
            let r = ovi.Compensation.knob in
            check_bits (label ^ ": island power")
              (power (Flow.Islands (v.Flow.direction, r)))
              ovi.Compensation.power_mw;
            check_bits (label ^ ": chip-wide power")
              (if d.Compensation.violating = 0 then baseline else chip_wide)
              ocw.Compensation.power_mw;
            if d.Compensation.violating = 0 then incr unc;
            if ovi.Compensation.meets then incr comp;
            if ocw.Compensation.meets then incr cwm;
            raised_sum := !raised_sum + r;
            Welford.add raised (float_of_int r);
            Welford.add isl ovi.Compensation.power_mw;
            Welford.add chip ocw.Compensation.power_mw;
            Welford.add delay d.Compensation.worst_low_ns;
            P2.add p50 d.Compensation.worst_low_ns;
            P2.add p90 d.Compensation.worst_low_ns;
            Counter.add scen d.Compensation.violating;
            Counter.add raised_c r
          done
        done;
        let dies = cfg.Wafer.fields * cfg.Wafer.dies_per_cell in
        t_unc := !t_unc + !unc;
        t_comp := !t_comp + !comp;
        t_cw := !t_cw + !cwm;
        Welford.merge ~into:t_raised raised;
        Welford.merge ~into:t_isl isl;
        Welford.merge ~into:t_chip chip;
        Welford.merge ~into:t_delay delay;
        Counter.merge ~into:t_scen scen;
        {
          Wafer.ix;
          iy;
          x_frac = Wafer.grid_frac cfg.Wafer.nx ix;
          y_frac = Wafer.grid_frac cfg.Wafer.ny iy;
          dies;
          yield_uncompensated = frac !unc dies;
          yield_compensated = frac !comp dies;
          yield_chip_wide = frac !cwm dies;
          mean_raised = Welford.mean raised;
          scenario_counts = Counter.to_array scen;
          raised_counts = Counter.to_array raised_c;
          mean_power_islands_mw = Welford.mean isl;
          mean_power_chip_wide_mw = Welford.mean chip;
          delay = Welford.summary delay;
          delay_p50_ns = P2.estimate p50;
          delay_p90_ns = P2.estimate p90;
        })
  in
  let dies = Array.length cells * cfg.Wafer.fields * cfg.Wafer.dies_per_cell in
  let expected =
    {
      Wafer.config = cfg;
      n_islands = n;
      clock_ns = Flow.clock t;
      cells;
      dies;
      yield_uncompensated = frac !t_unc dies;
      yield_compensated = frac !t_comp dies;
      yield_chip_wide = frac !t_cw dies;
      mean_raised = Welford.mean t_raised;
      scenario_counts = Counter.to_array t_scen;
      mean_power_islands_mw = Welford.mean t_isl;
      mean_power_chip_wide_mw = Welford.mean t_chip;
      delay = Welford.summary t_delay;
    }
  in
  (* The census must exercise what it checks. *)
  Alcotest.(check bool) "census raises islands" true (!raised_sum > 0);
  Alcotest.(check bool) "census has passing dies" true (!t_unc > 0);
  Array.iteri
    (fun c (e : Wafer.cell) ->
      let g = s.Wafer.cells.(c) in
      let label = Printf.sprintf "cell %d,%d" e.Wafer.ix e.Wafer.iy in
      Alcotest.(check (array int)) (label ^ ": scenario counts")
        e.Wafer.scenario_counts g.Wafer.scenario_counts;
      Alcotest.(check (array int)) (label ^ ": raised counts")
        e.Wafer.raised_counts g.Wafer.raised_counts;
      check_bits (label ^ ": mean raised") e.Wafer.mean_raised
        g.Wafer.mean_raised;
      check_bits (label ^ ": islands power") e.Wafer.mean_power_islands_mw
        g.Wafer.mean_power_islands_mw;
      check_bits (label ^ ": chip-wide power") e.Wafer.mean_power_chip_wide_mw
        g.Wafer.mean_power_chip_wide_mw;
      check_bits (label ^ ": delay P50") e.Wafer.delay_p50_ns
        g.Wafer.delay_p50_ns;
      check_bits (label ^ ": delay P90") e.Wafer.delay_p90_ns
        g.Wafer.delay_p90_ns;
      (* Every other field, compared as a whole record. *)
      if not (same_bits e g) then
        Alcotest.failf "%s: cell record differs" label)
    cells;
  check_bits "wafer islands power" expected.Wafer.mean_power_islands_mw
    s.Wafer.mean_power_islands_mw;
  check_bits "wafer delay mean" expected.Wafer.delay.Stats.mean
    s.Wafer.delay.Stats.mean;
  if not (same_bits expected s) then
    Alcotest.fail "wafer totals differ from the serial replay"

let test_wafer_domain_invariance () =
  (* Bit-identical sweeps for every pool size (the CI runs the whole
     suite under PVTOL_DOMAINS=2 as well). *)
  let t, v = Lazy.force env in
  let run_with domains =
    let p = Pool.create ~domains () in
    let s = Wafer.run ~pool:p t v wafer_cfg in
    Pool.shutdown p;
    s
  in
  let s1 = run_with 1 in
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "sweep identical with %d domains" domains)
        true
        (run_with domains = s1))
    [ 2; 4 ]

let test_wafer_aggregates_consistent () =
  let t, _ = Lazy.force env in
  let s = Wafer.sweep t wafer_cfg in
  let cells = Array.to_list s.Wafer.cells in
  Alcotest.(check int) "total dies"
    (wafer_cfg.Wafer.nx * wafer_cfg.Wafer.ny * wafer_cfg.Wafer.dies_per_cell)
    s.Wafer.dies;
  (* Wafer yields are the die-weighted means of the cell yields. *)
  let weighted f =
    List.fold_left
      (fun acc (c : Wafer.cell) -> acc +. (f c *. float_of_int c.Wafer.dies))
      0.0 cells
    /. float_of_int s.Wafer.dies
  in
  let close what a b =
    if Float.abs (a -. b) > 1e-12 then Alcotest.failf "%s: %g <> %g" what a b
  in
  close "uncompensated yield"
    (weighted (fun c -> c.Wafer.yield_uncompensated))
    s.Wafer.yield_uncompensated;
  close "compensated yield"
    (weighted (fun c -> c.Wafer.yield_compensated))
    s.Wafer.yield_compensated;
  close "mean raised" (weighted (fun c -> c.Wafer.mean_raised)) s.Wafer.mean_raised;
  (* Scenario counts add up; the delay extrema are the cell extrema. *)
  Alcotest.(check int) "scenario counts total" s.Wafer.dies
    (Array.fold_left ( + ) 0 s.Wafer.scenario_counts);
  let min_d =
    List.fold_left (fun acc (c : Wafer.cell) -> Float.min acc c.Wafer.delay.Stats.min)
      infinity cells
  in
  check_bits "delay min" min_d s.Wafer.delay.Stats.min;
  List.iter
    (fun (c : Wafer.cell) ->
      Alcotest.(check bool) "p50 <= p90" true
        (c.Wafer.delay_p50_ns <= c.Wafer.delay_p90_ns +. 1e-12);
      Alcotest.(check bool) "yield ordering" true
        (c.Wafer.yield_compensated >= c.Wafer.yield_uncompensated))
    cells

let test_wafer_memoized () =
  let t, _ = Lazy.force env in
  let s1 = Wafer.sweep t wafer_cfg in
  let s2 = Wafer.sweep t wafer_cfg in
  Alcotest.(check bool) "same sweep value (memoized stage)" true (s1 == s2)

let test_wafer_flat_memory () =
  (* Streaming statistics: the retained sweep grows with the grid, not
     with the die population. *)
  let t, v = Lazy.force env in
  let sweep_words dies_per_cell =
    let cfg = { wafer_cfg with Wafer.dies_per_cell } in
    Obj.reachable_words (Obj.repr (Wafer.run t v cfg))
  in
  Alcotest.(check int) "10x dies, same retained size" (sweep_words 4)
    (sweep_words 40)

let test_wafer_validation () =
  let t, v = Lazy.force env in
  let expect_invalid what cfg =
    try
      ignore (Wafer.run t v cfg);
      Alcotest.failf "%s: expected Invalid_argument" what
    with Invalid_argument _ -> ()
  in
  expect_invalid "empty grid" { wafer_cfg with Wafer.nx = 0 };
  expect_invalid "no dies" { wafer_cfg with Wafer.dies_per_cell = 0 };
  expect_invalid "direction mismatch"
    { wafer_cfg with Wafer.direction = Island.Horizontal }

let suite =
  ( "postsilicon",
    [
      Alcotest.test_case "diagonal study golden" `Quick test_run_golden;
      Alcotest.test_case "detection = violation" `Quick
        test_detection_equals_violation;
      Alcotest.test_case "raised monotonicity" `Quick test_raised_monotonicity;
      Alcotest.test_case "chip-wide subsumes islands" `Quick
        test_chip_wide_subsumes_islands;
      Alcotest.test_case "kernel protocol = run" `Quick
        test_kernel_protocol_matches_run;
      Alcotest.test_case "diagonal position equivalence" `Quick
        test_diagonal_position_equivalence;
      Alcotest.test_case "exhibit histogram = detected scenarios" `Quick
        test_exhibit_histogram;
      Alcotest.test_case "wafer cell independence" `Quick
        test_wafer_cell_independence;
      Alcotest.test_case "wafer domain invariance" `Quick
        test_wafer_domain_invariance;
      Alcotest.test_case "wafer aggregates consistent" `Quick
        test_wafer_aggregates_consistent;
      Alcotest.test_case "wafer sweep memoized" `Quick test_wafer_memoized;
      Alcotest.test_case "wafer flat memory" `Quick test_wafer_flat_memory;
      Alcotest.test_case "wafer validation" `Quick test_wafer_validation;
    ] )
