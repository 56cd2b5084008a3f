(* Tests for the pluggable compensation-strategy interface
   ([Compensation]) and the strategy comparison harness ([Compare]).

   The load-bearing guarantees are differential: the detect pass and
   every strategy must match the rescale-everything oracle
   ([Compensation_oracle]) bit for bit, and [Compare] on the same grid
   as a [Wafer] sweep must return identical yields and mean powers, on
   top of the golden study pins and the census replay of
   [Test_postsilicon]. *)

module Flow = Pvtol_core.Flow
module Island = Pvtol_core.Island
module Compensation = Pvtol_core.Compensation
module Compare = Pvtol_core.Compare
module Wafer = Pvtol_core.Wafer
module Position = Pvtol_variation.Position
module Sampler = Pvtol_variation.Sampler
module Sta = Pvtol_timing.Sta
module Pool = Pvtol_util.Pool
module Srng = Pvtol_util.Srng
module Metrics = Pvtol_util.Metrics

let env = Test_extensions.env

let check_bits what expected got =
  if expected <> got then
    Alcotest.failf "%s: expected %h, got %h" what expected got

(* Same grid geometry as the wafer tests, so the memoized sweep is
   shared and the comparison is apples-to-apples. *)
let geometry = (3, 2, 5, 1, 7)

let compare_cfg choices =
  let nx, ny, dies_per_cell, fields, seed = geometry in
  { Compare.nx; ny; dies_per_cell; fields; seed;
    direction = Island.Vertical; choices }

let wafer_cfg =
  let nx, ny, dies_per_cell, fields, seed = geometry in
  { Wafer.nx; ny; dies_per_cell; fields; seed; direction = Island.Vertical }

let result_of r name =
  match
    List.find_opt (fun (s : Compare.strategy_result) -> s.Compare.name = name)
      r.Compare.results
  with
  | Some s -> s
  | None -> Alcotest.failf "strategy %s missing from report" name

(* --- differential: Compare reproduces the Wafer sweep bit-for-bit --- *)

let test_compare_matches_wafer () =
  let t, _ = Lazy.force env in
  let r = Compare.compare t (compare_cfg [ Compensation.Vi; Compensation.Chipwide ]) in
  let w = Wafer.sweep t wafer_cfg in
  Alcotest.(check int) "same die population" w.Wafer.dies r.Compare.dies;
  check_bits "uncompensated yield" w.Wafer.yield_uncompensated
    r.Compare.yield_uncompensated;
  let vi = result_of r "vi" and cw = result_of r "chipwide" in
  check_bits "vi yield = wafer compensated yield" w.Wafer.yield_compensated
    vi.Compare.yield;
  check_bits "chipwide yield = wafer chip-wide yield" w.Wafer.yield_chip_wide
    cw.Compare.yield;
  (* Mean powers go through the same per-cell Welford + row-major merge
     as the wafer sweep, over the same per-die values: bit-identical. *)
  check_bits "vi mean power = wafer islands power"
    w.Wafer.mean_power_islands_mw vi.Compare.mean_power_mw;
  check_bits "chipwide mean power = wafer chip-wide power"
    w.Wafer.mean_power_chip_wide_mw cw.Compare.mean_power_mw;
  check_bits "vi mean knob = wafer mean raised" w.Wafer.mean_raised
    vi.Compare.mean_knob

let test_compare_matches_wafer_domains () =
  (* Same differential at 1, 2 and 4 domains: both sweeps are ordered
     row-major reductions, so every pool size gives the same report. *)
  let t, v = Lazy.force env in
  let with_pool domains f =
    let p = Pool.create ~domains () in
    Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)
  in
  let r1 =
    with_pool 1 (fun p ->
        Compare.run ~pool:p t v
          (compare_cfg [ Compensation.Vi; Compensation.Chipwide ]))
  in
  let w = Wafer.sweep t wafer_cfg in
  check_bits "1-domain vi yield" w.Wafer.yield_compensated
    (result_of r1 "vi").Compare.yield;
  List.iter
    (fun domains ->
      let r =
        with_pool domains (fun p -> Compare.run ~pool:p t v (compare_cfg Compensation.all_choices))
      in
      let r' =
        with_pool 1 (fun p -> Compare.run ~pool:p t v (compare_cfg Compensation.all_choices))
      in
      Alcotest.(check bool)
        (Printf.sprintf "full report identical with %d domains" domains)
        true (r = r'))
    [ 2; 4 ]

let test_strategy_isolation () =
  (* Strategies consume no RNG and share no mutable state: a strategy's
     column is identical whether it runs alone, with every rival, or in
     any order. *)
  let t, v = Lazy.force env in
  let full = Compare.run t v (compare_cfg Compensation.all_choices) in
  let reversed =
    Compare.run t v
      (compare_cfg
         [ Compensation.Buffers; Compensation.Skew; Compensation.Chipwide;
           Compensation.Vi ])
  in
  let alone c = Compare.run t v (compare_cfg [ c ]) in
  List.iter
    (fun choice ->
      let name = Compensation.choice_name choice in
      let f = result_of full name in
      Alcotest.(check bool)
        (name ^ ": same result reversed")
        true
        (result_of reversed name = f);
      Alcotest.(check bool)
        (name ^ ": same result alone")
        true
        (result_of (alone choice) name = f))
    Compensation.all_choices

(* --- strategy properties on a simulated population --- *)

let population () =
  let t, v = Lazy.force env in
  let ctx = Compensation.context t in
  let sc = Compensation.scratch ctx in
  let strategies =
    List.map (fun c -> Compensation.build t ctx v c) Compensation.all_choices
  in
  let applies =
    List.map (fun (s : Compensation.strategy) ->
        (s, s.Compensation.fresh_apply ()))
      strategies
  in
  let dies = ref [] in
  List.iter
    (fun pos ->
      let systematic = Compensation.systematic ctx pos in
      let rng = Srng.create 11 in
      for _ = 1 to 6 do
        let d = Compensation.detect ctx sc ~systematic rng in
        let outcomes =
          List.map (fun (s, apply) -> (s, apply sc d)) applies
        in
        dies := (d, outcomes) :: !dies
      done)
    [ Position.point_a; Position.point_b; Position.point_d;
      Position.at_xy ~x_frac:0.1 ~y_frac:0.9 () ];
  (ctx, List.rev !dies)

let test_passing_dies_touch_nothing () =
  (* Every strategy's knob count is 0 on a passing die — in particular
     skew tuning never worsens a die that already meets timing. *)
  let ctx, dies = population () in
  let baseline = Compensation.power_baseline_mw ctx in
  let some_passed = ref false in
  List.iter
    (fun ((d : Compensation.detect), outcomes) ->
      if d.Compensation.violating = 0 then begin
        some_passed := true;
        List.iter
          (fun ((s : Compensation.strategy), (o : Compensation.outcome)) ->
            Alcotest.(check int)
              (s.Compensation.name ^ ": knob 0 on passing die")
              0 o.Compensation.knob;
            Alcotest.(check bool)
              (s.Compensation.name ^ ": passing die still meets")
              true o.Compensation.meets;
            check_bits
              (s.Compensation.name ^ ": passing die area")
              0.0 o.Compensation.area_um2;
            if s.Compensation.name <> "vi" then
              check_bits
                (s.Compensation.name ^ ": passing die power is baseline")
                baseline o.Compensation.power_mw)
          outcomes
      end)
    dies;
  Alcotest.(check bool) "population exercises passing dies" true !some_passed

let test_knob_bounds_and_meets () =
  let _, dies = population () in
  let some_failed = ref false in
  List.iter
    (fun ((d : Compensation.detect), outcomes) ->
      if d.Compensation.violating > 0 then some_failed := true;
      List.iter
        (fun ((s : Compensation.strategy), (o : Compensation.outcome)) ->
          Alcotest.(check bool)
            (s.Compensation.name ^ ": knob within bounds")
            true
            (o.Compensation.knob >= 0
            && o.Compensation.knob <= s.Compensation.max_knob);
          if d.Compensation.violating > 0 && o.Compensation.meets then
            Alcotest.(check bool)
              (s.Compensation.name ^ ": fixing a failing die uses the knob")
              true
              (o.Compensation.knob > 0))
        outcomes)
    dies;
  Alcotest.(check bool) "population exercises failing dies" true !some_failed

let test_cost_monotone_in_knob () =
  (* Skew and buffer costs are knob-linear by construction: power and
     area never decrease as more elements are exercised. *)
  let _, dies = population () in
  List.iter
    (fun name ->
      let outcomes =
        List.map
          (fun (_, os) ->
            snd
              (List.find
                 (fun ((s : Compensation.strategy), _) ->
                   s.Compensation.name = name)
                 os))
          dies
      in
      let sorted =
        List.sort
          (fun (a : Compensation.outcome) b ->
            Stdlib.compare a.Compensation.knob b.Compensation.knob)
          outcomes
      in
      ignore
        (List.fold_left
           (fun ((pk, pp, pa) as prev) (o : Compensation.outcome) ->
             if o.Compensation.knob = pk then begin
               check_bits (name ^ ": equal knob, equal power") pp
                 o.Compensation.power_mw;
               check_bits (name ^ ": equal knob, equal area") pa
                 o.Compensation.area_um2;
               prev
             end
             else begin
               Alcotest.(check bool)
                 (name ^ ": power monotone in knob")
                 true
                 (o.Compensation.power_mw >= pp);
               Alcotest.(check bool)
                 (name ^ ": area monotone in knob")
                 true
                 (o.Compensation.area_um2 >= pa);
               (o.Compensation.knob, o.Compensation.power_mw,
                o.Compensation.area_um2)
             end)
           (0, (List.hd sorted).Compensation.power_mw,
            (List.hd sorted).Compensation.area_um2)
           sorted))
    [ "skew"; "buffers" ]

let test_detect_matches_full_pass () =
  (* [detect] re-times through the scratch's incremental STA; a plain
     sample -> scale -> scalar oracle pass replay of the same RNG stream must
     give the same verdict and the same worst delay, bit for bit.  The
     island strategy runs between dies so each detect starts from a
     raised-supply state. *)
  let t, v = Lazy.force env in
  let ctx = Compensation.context t in
  let sc = Compensation.scratch ctx in
  let vi_apply = (Compensation.voltage_islands t ctx v).Compensation.fresh_apply () in
  let sampler = Flow.sampler t and sta = Flow.sta t in
  let clock = Flow.clock t in
  let nl = Flow.netlist t in
  let low =
    nl.Pvtol_netlist.Netlist.lib.Pvtol_stdcell.Cell.process
      .Pvtol_stdcell.Process.vdd_low
  in
  let base = Sta.nominal_delays sta in
  let n = Array.length base in
  let delays = Array.make n 0.0 in
  let ws = Sta_oracle.workspace sta in
  let process = sampler.Sampler.process in
  let sigma = sampler.Sampler.sigma_rnd_nm in
  List.iter
    (fun pos ->
      let systematic = Compensation.systematic ctx pos in
      let rng = Srng.create 23 and replay = Srng.create 23 in
      for die = 1 to 6 do
        let d = Compensation.detect ctx sc ~systematic rng in
        ignore (vi_apply sc d);
        (* The replay's own per-cell draw and scalar scale, independent
           of the sampler's bulk draw and array kernel. *)
        for i = 0 to n - 1 do
          let lgate_nm = systematic.(i) +. (sigma *. Srng.gaussian replay) in
          delays.(i) <- base.(i) *. Pvtol_stdcell.Process.delay_scale process
                          ~vdd:low ~lgate_nm
        done;
        Sta_oracle.analyze_into ws ~delays;
        let stage_delays =
          List.filter_map (Sta_oracle.ws_stage_delay ws) Compensation.analyzed
        in
        let label = Printf.sprintf "%s die %d" pos.Position.label die in
        Alcotest.(check int) (label ^ ": violating")
          (List.length (List.filter (fun d -> d > clock +. 1e-12) stage_delays))
          d.Compensation.violating;
        check_bits (label ^ ": worst low delay")
          (List.fold_left Float.max 0.0 stage_delays)
          d.Compensation.worst_low_ns
      done)
    Position.named

(* The census geometry of the tracked-scratch tests: 3x3 cells x 4
   dies on the quick design. *)
let census_cfg =
  { Wafer.nx = 3; ny = 3; dies_per_cell = 4; fields = 1; seed = 7;
    direction = Island.Vertical }

let test_tracked_scratch_matches_full_rescale () =
  (* The supply-tracked scratch (one exact scale per cell and supply,
     skew and buffers on the kept low vector) against the
     rescale-everything oracle, die by die: same detect verdicts, same
     outcome bits for every strategy in [all_choices] order, and the
     same STA work — the incremental pass sees the same delay changes. *)
  let t, v = Lazy.force env in
  let ctx = Compensation.context t in
  let sc = Compensation.scratch ctx in
  let applies =
    List.map
      (fun ch -> (ch, (Compensation.build t ctx v ch).Compensation.fresh_apply ()))
      Compensation.all_choices
  in
  let o = Compensation_oracle.create t v in
  let analyzes = Metrics.counter "sta_analyze_total" in
  let gates = Metrics.counter "sta_incremental_gates_total" in
  let counts () = (Metrics.counter_value analyzes, Metrics.counter_value gates) in
  let diff (a0, g0) (a1, g1) = (a1 - a0, g1 - g0) in
  let lib_work = ref (0, 0) and oracle_work = ref (0, 0) in
  let add r (a, g) = r := (fst !r + a, snd !r + g) in
  let raised = ref 0 in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) (fun () ->
      for iy = 0 to census_cfg.Wafer.ny - 1 do
        for ix = 0 to census_cfg.Wafer.nx - 1 do
          let pos = Wafer.cell_position census_cfg ~ix ~iy in
          let sys = Compensation.systematic_into ctx sc pos in
          let sys_o = Compensation_oracle.systematic o pos in
          Array.iteri
            (fun i e -> check_bits (Printf.sprintf "map cell %d" i) e sys.(i))
            sys_o;
          let seed = Wafer.cell_seed census_cfg ~field:0 ~ix ~iy in
          let rng = Srng.create seed and rng_o = Srng.create seed in
          for die = 1 to census_cfg.Wafer.dies_per_cell do
            let label = Printf.sprintf "cell %d,%d die %d" ix iy die in
            let c0 = counts () in
            let d = Compensation.detect ctx sc ~systematic:sys rng in
            let outs = List.map (fun (_, apply) -> apply sc d) applies in
            let c1 = counts () in
            let d_o = Compensation_oracle.detect o ~systematic:sys_o rng_o in
            let outs_o =
              List.map (fun (ch, _) -> Compensation_oracle.apply o ch d_o) applies
            in
            let c2 = counts () in
            add lib_work (diff c0 c1);
            add oracle_work (diff c1 c2);
            Alcotest.(check int) (label ^ ": violating") d_o.Compensation.violating
              d.Compensation.violating;
            check_bits (label ^ ": worst low") d_o.Compensation.worst_low_ns
              d.Compensation.worst_low_ns;
            List.iter2
              (fun ((ch, _), (e : Compensation.outcome)) (g : Compensation.outcome) ->
                let l = label ^ " " ^ Compensation.choice_name ch in
                Alcotest.(check bool) (l ^ ": meets") e.Compensation.meets
                  g.Compensation.meets;
                Alcotest.(check int) (l ^ ": knob") e.Compensation.knob
                  g.Compensation.knob;
                check_bits (l ^ ": power") e.Compensation.power_mw
                  g.Compensation.power_mw;
                check_bits (l ^ ": area") e.Compensation.area_um2
                  g.Compensation.area_um2;
                if ch = Compensation.Vi then raised := !raised + g.Compensation.knob)
              (List.combine applies outs_o) outs
          done
        done
      done);
  Alcotest.(check bool) "population raises islands" true (!raised > 0);
  Alcotest.(check (pair int int)) "STA analyses and incremental gates"
    !oracle_work !lib_work

(* Minor words per die per cell of the serial replay below — detect,
   then the island, chip-wide and skew applies — on the quick design
   (7,019 cells; OCaml 5.1, dune's default dev profile).  Before supply
   tracking, bulk draws and the array kernels, detect + vi + chip-wide
   alone took 64.6: every delay scale boxed a float per cell, every
   gaussian boxed its Int64 state and every die allocated its
   systematic map.  Before STA took clock skew as a per-flop row of its
   workspace, this replay took 5.24: 2.50 in the systematic map (a clamp closure
   kept the field polynomial out of line), 1.35 in the island raises
   (a closure per incremental worklist push) and 1.35 in the skew
   apply (a boxed float per skew-closure call).  It is now 0.05.  The
   bound is twice that, so re-boxing any per-cell float, the skew row
   or the worklist fails the suite. *)
let max_words_per_die_cell = 0.1

(* What the buffer strategy's apply adds to that replay, same design
   and toolchain.  Its binding-endpoint search folded a (cid, delay)
   tuple and boxed a float per improving endpoint, and ran twice for
   the failing stage: 2.62 words per die per cell.  It now scans a
   per-apply array of endpoint arrivals with an index loop, filled once
   per die after the STA pass; what is left, 0.12, is mostly the one
   boxed float per endpoint read out of the STA workspace.  The bound
   is twice that. *)
let max_buffer_words_per_die_cell = 0.23

let test_die_allocation_bound () =
  let t, v = Lazy.force env in
  let ctx = Compensation.context t in
  let sc = Compensation.scratch ctx in
  let apply ch = (Compensation.build t ctx v ch).Compensation.fresh_apply () in
  let vi = apply Compensation.Vi and cw = apply Compensation.Chipwide in
  let skew = apply Compensation.Skew and buffers = apply Compensation.Buffers in
  let n_cells = Pvtol_netlist.Netlist.cell_count (Flow.netlist t) in
  let raised = ref 0 and tuned = ref 0 and trimmed = ref 0 in
  let run ~with_buffers =
    let dies = ref 0 in
    for iy = 0 to census_cfg.Wafer.ny - 1 do
      for ix = 0 to census_cfg.Wafer.nx - 1 do
        let systematic =
          Compensation.systematic_into ctx sc
            (Wafer.cell_position census_cfg ~ix ~iy)
        in
        let rng = Srng.create (Wafer.cell_seed census_cfg ~field:0 ~ix ~iy) in
        for _ = 1 to census_cfg.Wafer.dies_per_cell do
          let d = Compensation.detect ctx sc ~systematic rng in
          raised := !raised + (vi sc d).Compensation.knob;
          ignore (cw sc d);
          tuned := !tuned + (skew sc d).Compensation.knob;
          if with_buffers then
            trimmed := !trimmed + (buffers sc d).Compensation.knob;
          incr dies
        done
      done
    done;
    !dies
  in
  let words_per_die_cell ~with_buffers =
    ignore (run ~with_buffers);
    let w0 = Gc.minor_words () in
    let dies = run ~with_buffers in
    (Gc.minor_words () -. w0) /. float_of_int (dies * n_cells)
  in
  let per = words_per_die_cell ~with_buffers:false in
  let per_buffers = words_per_die_cell ~with_buffers:true -. per in
  (* The replay must exercise what the bounds guard. *)
  Alcotest.(check bool) "replay raises islands" true (!raised > 0);
  Alcotest.(check bool) "replay tunes skew" true (!tuned > 0);
  Alcotest.(check bool) "replay trims buffers" true (!trimmed > 0);
  if per > max_words_per_die_cell then
    Alcotest.failf "%.3f minor words per die per cell (bound %.2f)" per
      max_words_per_die_cell;
  if per_buffers > max_buffer_words_per_die_cell then
    Alcotest.failf
      "buffers apply: %.3f minor words per die per cell (bound %.2f)"
      per_buffers max_buffer_words_per_die_cell

(* --- harness behaviour --- *)

let test_compare_memoized () =
  let t, _ = Lazy.force env in
  let cfg = compare_cfg Compensation.all_choices in
  let r1 = Compare.compare t cfg in
  let r2 = Compare.compare t cfg in
  Alcotest.(check bool) "same report value (memoized stage)" true (r1 == r2);
  (* A different strategy list is a different stage key. *)
  let r3 = Compare.compare t (compare_cfg [ Compensation.Vi ]) in
  Alcotest.(check bool) "different key, different report" true (r3 != r1)

let test_compare_validation () =
  let t, v = Lazy.force env in
  let expect_invalid what cfg =
    try
      ignore (Compare.run t v cfg);
      Alcotest.failf "%s: expected Invalid_argument" what
    with Invalid_argument _ -> ()
  in
  expect_invalid "empty grid"
    { (compare_cfg Compensation.all_choices) with Compare.nx = 0 };
  expect_invalid "no strategies" (compare_cfg []);
  expect_invalid "duplicate strategy"
    (compare_cfg [ Compensation.Vi; Compensation.Vi ]);
  expect_invalid "direction mismatch"
    { (compare_cfg Compensation.all_choices) with
      Compare.direction = Island.Horizontal }

let test_choice_names_roundtrip () =
  List.iter
    (fun c ->
      match Compensation.choice_of_name (Compensation.choice_name c) with
      | Some c' -> Alcotest.(check bool) "roundtrip" true (c = c')
      | None -> Alcotest.fail "choice name does not parse back")
    Compensation.all_choices;
  Alcotest.(check bool) "unknown name rejected" true
    (Compensation.choice_of_name "razor" = None);
  Alcotest.(check string) "label order" "vi,chipwide,skew,buffers"
    (Compensation.choices_label Compensation.all_choices)

let test_report_shapes () =
  let t, _ = Lazy.force env in
  let r = Compare.compare t (compare_cfg Compensation.all_choices) in
  Alcotest.(check int) "one result per strategy" 4 (List.length r.Compare.results);
  let vi = result_of r "vi" in
  Alcotest.(check bool) "vi never hurts yield" true
    (vi.Compare.yield >= r.Compare.yield_uncompensated);
  List.iter
    (fun (s : Compare.strategy_result) ->
      Alcotest.(check bool) (s.Compare.name ^ ": yield in [unc, 1]") true
        (s.Compare.yield >= r.Compare.yield_uncompensated -. 1e-12
        && s.Compare.yield <= 1.0 +. 1e-12);
      Alcotest.(check bool) (s.Compare.name ^ ": power above baseline") true
        (s.Compare.mean_power_mw >= r.Compare.power_baseline_mw -. 1e-9))
    r.Compare.results;
  (* Render and JSON both mention every strategy once. *)
  let rendered = Compare.render r and json = Compare.to_json r in
  let count_sub hay needle =
    let n = String.length needle and h = String.length hay in
    let c = ref 0 in
    for i = 0 to h - n do
      if String.sub hay i n = needle then incr c
    done;
    !c
  in
  List.iter
    (fun (s : Compare.strategy_result) ->
      Alcotest.(check bool) (s.Compare.name ^ " rendered") true
        (count_sub rendered s.Compare.title = 1);
      Alcotest.(check int)
        (s.Compare.name ^ " in json")
        1
        (count_sub json (Printf.sprintf "\"name\": \"%s\"" s.Compare.name)))
    r.Compare.results

let suite =
  ( "compensation",
    [
      Alcotest.test_case "compare = wafer sweep (vi, chipwide)" `Quick
        test_compare_matches_wafer;
      Alcotest.test_case "compare domain invariance (1/2/4)" `Quick
        test_compare_matches_wafer_domains;
      Alcotest.test_case "strategy isolation (order, subset)" `Quick
        test_strategy_isolation;
      Alcotest.test_case "passing dies: knob 0 everywhere" `Quick
        test_passing_dies_touch_nothing;
      Alcotest.test_case "knob bounds and meets" `Quick
        test_knob_bounds_and_meets;
      Alcotest.test_case "skew/buffer cost monotone in knob" `Quick
        test_cost_monotone_in_knob;
      Alcotest.test_case "detect = full-pass replay (A-D)" `Quick
        test_detect_matches_full_pass;
      Alcotest.test_case "tracked scratch = full-rescale oracle" `Quick
        test_tracked_scratch_matches_full_rescale;
      Alcotest.test_case "per-die allocation bound" `Quick
        test_die_allocation_bound;
      Alcotest.test_case "compare memoized per key" `Quick
        test_compare_memoized;
      Alcotest.test_case "compare validation" `Quick test_compare_validation;
      Alcotest.test_case "choice names roundtrip" `Quick
        test_choice_names_roundtrip;
      Alcotest.test_case "report shapes (render, json)" `Quick
        test_report_shapes;
    ] )
