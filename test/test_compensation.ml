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

(* Same grid geometry as the wafer tests, so the comparison is
   apples-to-apples. *)
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
  let t, v = Lazy.force env in
  let r = Compare.run t v (compare_cfg [ Compensation.Vi; Compensation.Chipwide ]) in
  let w = Wafer.run t v wafer_cfg in
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
  let w = Wafer.run t v wafer_cfg in
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
      Position.at_xy ~x_frac:0.1 ~y_frac:0.9 ];
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
  (* [detect] scales both supplies with the array kernel and times the
     low one on the library pass; a plain sample -> scale -> scalar
     oracle pass replay of the same RNG stream must give the same
     verdict and the same worst delay, bit for bit.  The island strategy
     runs between dies so each detect follows a lane settle on the same
     scratch. *)
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

(* How the speculative skew settle must read one sequential settle of
   the oracle: the failing stages of each sequential pass ([trace]), why
   it stopped ([stop]) and the first speculation's [guess] at them.  A
   pass prices four consecutive sequential states from its first; the
   walk reads them while each failing set is the guess and stops at the
   first that differs (the next pass starts one step after it, guessing
   its set), after the fourth (same guess), or at the sequential
   settle's last state.  One entry per pass: how it ended, and on which
   lane. *)
type spec_end =
  | Changed of int  (* the failing set differs from the guess *)
  | Ran_out  (* four lanes read, the set never changed *)
  | Met of int
  | Capped of int  (* the iteration cap *)
  | Saturated of int  (* the step moved no flop *)

let speculation ~guess trace stop =
  let masks = Array.of_list trace in
  let n = Array.length masks in
  let rec pass i guess acc =
    let rec walk k =
      if i + k = n - 1 then
        (match stop with
         | `Meets -> Met k
         | `Cap -> Capped k
         | `Saturated -> Saturated k)
      else if masks.(i + k) = guess && k < Compensation.batch_lanes - 1 then
        walk (k + 1)
      else if masks.(i + k) = guess then Ran_out
      else Changed k
    in
    match walk 0 with
    | (Met _ | Capped _ | Saturated _) as e -> List.rev (e :: acc)
    | Changed k -> pass (i + k + 1) masks.(i + k) (Changed k :: acc)
    | Ran_out -> pass (i + Compensation.batch_lanes) guess (Ran_out :: acc)
  in
  if n = 0 then [] else pass 0 guess []

(* The census geometry of the tracked-scratch tests: 3x3 cells x 4
   dies on the quick design. *)
let census_cfg =
  { Wafer.nx = 3; ny = 3; dies_per_cell = 4; fields = 1; seed = 7;
    direction = Island.Vertical }

let test_tracked_scratch_matches_full_rescale () =
  (* The lane settle (both supplies scaled once per die, the island
     raises and the all-high configuration priced as lanes of one pass,
     chip-wide reading the all-high lane, skew on speculative lanes of
     the kept low vector, buffers on the kept endpoint delays) against
     the sequential rescale-everything oracle, die by die: same detect
     verdicts, same outcome bits for every strategy in [all_choices]
     order, and exactly the STA work the lane settle implies — one pass
     for detect, [n_islands - r0 + 2] lanes for a failing die's island
     settle, none for chip-wide after it, four lanes per speculative
     pass of the skew settle ({!speculation} of the oracle's sequential
     one) and none for buffers. *)
  let t, v = Lazy.force env in
  let ctx = Compensation.context t in
  let sc = Compensation.scratch ctx in
  let applies =
    List.map
      (fun ch -> (ch, (Compensation.build t ctx v ch).Compensation.fresh_apply ()))
      Compensation.all_choices
  in
  let n_islands =
    Array.length v.Flow.slicing.Pvtol_core.Slicing.partition.Island.islands
  in
  let o = Compensation_oracle.create t v in
  let analyzes = Metrics.counter "sta_analyze_total" in
  let counted f =
    let a0 = Metrics.counter_value analyzes in
    let r = f () in
    (r, Metrics.counter_value analyzes - a0)
  in
  let lib_work = ref 0 and expected_work = ref 0 in
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
            let d, w = counted (fun () -> Compensation.detect ctx sc ~systematic:sys rng) in
            let outs = List.map (fun (_, apply) -> counted (fun () -> apply sc d)) applies in
            let d_o = Compensation_oracle.detect o ~systematic:sys_o rng_o in
            let outs_o =
              List.map
                (fun (ch, _) -> counted (fun () -> Compensation_oracle.apply o ch d_o))
                applies
            in
            let failing = d.Compensation.violating in
            lib_work := !lib_work + w + List.fold_left (fun a (_, w) -> a + w) 0 outs;
            expected_work :=
              !expected_work + 1
              + List.fold_left
                  (fun a (ch, _) ->
                    a
                    +
                    match ch with
                    | Compensation.Vi ->
                      if failing > 0 && n_islands > 0 then
                        n_islands - min failing n_islands + 2
                      else 0
                    | Compensation.Chipwide | Compensation.Buffers -> 0
                    | Compensation.Skew ->
                      if failing = 0 then 0
                      else
                        Compensation.batch_lanes
                        * List.length
                            (speculation ~guess:o.Compensation_oracle.first_guess
                               o.Compensation_oracle.skew_trace
                               o.Compensation_oracle.skew_end))
                  0 applies;
            Alcotest.(check int) (label ^ ": violating") d_o.Compensation.violating
              d.Compensation.violating;
            check_bits (label ^ ": worst low") d_o.Compensation.worst_low_ns
              d.Compensation.worst_low_ns;
            List.iter2
              (fun ((ch, _), ((e : Compensation.outcome), _))
                   ((g : Compensation.outcome), _) ->
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
  Alcotest.(check int) "STA analyses of the lane settle" !expected_work !lib_work

let test_chipwide_stamp_per_die () =
  (* Chip-wide reads the all-high verdict the island settle stamped only
     on the die that settle priced.  Die A has so long a gate length
     everywhere that even the all-high configuration fails; die B, next
     on the same scratch, is a failing die that all-high fixes, and runs
     chip-wide before (and without) the island strategy.  Both verdicts
     must match the sequential oracle's, one die per detect and as two
     lanes of one batch. *)
  let t, v = Lazy.force env in
  let ctx = Compensation.context t in
  let sc = Compensation.scratch ctx in
  let apply ch = (Compensation.build t ctx v ch).Compensation.fresh_apply () in
  let vi = apply Compensation.Vi and cw = apply Compensation.Chipwide in
  let o = Compensation_oracle.create t v in
  let chipwide_pair ~systematic seed ~with_vi =
    let d = Compensation.detect ctx sc ~systematic (Srng.create seed) in
    if with_vi then ignore (vi sc d);
    let got = cw sc d in
    let d_o = Compensation_oracle.detect o ~systematic (Srng.create seed) in
    (d, got, Compensation_oracle.apply o Compensation.Chipwide d_o)
  in
  let slow =
    Array.make (Pvtol_netlist.Netlist.cell_count (Flow.netlist t)) 85.0
  in
  let d, got, expected = chipwide_pair ~systematic:slow 1 ~with_vi:true in
  Alcotest.(check bool) "die A fails" true (d.Compensation.violating > 0);
  Alcotest.(check bool) "die A: all-high fails too" false
    expected.Compensation.meets;
  Alcotest.(check bool) "die A: chip-wide verdict" expected.Compensation.meets
    got.Compensation.meets;
  let systematic = Compensation.systematic ctx Position.point_a in
  let rec failing_die seed =
    if seed > 64 then Alcotest.fail "no failing die at A that all-high fixes"
    else
      let d, got, expected = chipwide_pair ~systematic seed ~with_vi:false in
      if d.Compensation.violating > 0 && expected.Compensation.meets then
        (seed, got, expected)
      else failing_die (seed + 1)
  in
  let seed_b, got, expected = failing_die 1 in
  Alcotest.(check bool) "die B: chip-wide verdict" expected.Compensation.meets
    got.Compensation.meets;
  (* The same two dies as lanes 0 and 1 of one batch: chip-wide on B
     must not read the stamp the settle left on A. *)
  Compensation.draw ctx sc 0 ~systematic:slow ~raw:ignore (Srng.create 1);
  Compensation.draw ctx sc 1 ~systematic ~raw:ignore (Srng.create seed_b);
  Compensation.detect_lanes ctx sc 2;
  let d_a = Compensation.select sc 0 in
  ignore (vi sc d_a);
  Alcotest.(check bool) "batched die A: chip-wide verdict" false
    (cw sc d_a).Compensation.meets;
  let d_b = Compensation.select sc 1 in
  Alcotest.(check bool) "batched die B: chip-wide verdict"
    expected.Compensation.meets (cw sc d_b).Compensation.meets

let test_lane_state_across_strategies () =
  (* Four failing dies as the lanes of one batch, each selected in turn
     and run through the island settle, the skew settle and the buffer
     settle, which all share the scratch: the skew settle must time the
     selected lane's die and the buffers read the endpoint delays
     [detect_lanes] kept for it, not whatever the settles before them
     left.  Lanes 1-3 hold dies whose skew and buffer outcomes both
     differ from lane 0's, so reading lane 0 shows.  Then the same four
     dies again through [detect_lanes], right after a skew apply: the
     verdicts of an ideal clock, so the skew settle's rows went back to
     zero. *)
  let t, v = Lazy.force env in
  let ctx = Compensation.context t in
  let sc = Compensation.scratch ctx in
  let apply ch = (Compensation.build t ctx v ch).Compensation.fresh_apply () in
  let vi = apply Compensation.Vi and skew = apply Compensation.Skew in
  let buffers = apply Compensation.Buffers in
  let o = Compensation_oracle.create t v in
  let candidates =
    List.concat_map
      (fun pos ->
        let systematic = Compensation.systematic ctx pos in
        List.init 12 (fun i -> (pos.Position.label, systematic, i + 1)))
      Position.named
  in
  let oracle_die (label, systematic, seed) =
    let d = Compensation_oracle.detect o ~systematic (Srng.create seed) in
    ( (label, systematic, seed),
      d,
      Compensation_oracle.apply o Compensation.Skew d,
      Compensation_oracle.apply o Compensation.Buffers d )
  in
  let knobs (_, _, (s : Compensation.outcome), (b : Compensation.outcome)) =
    ((s.Compensation.meets, s.Compensation.knob), (b.Compensation.meets, b.Compensation.knob))
  in
  let rec pick acc = function
    | _ when List.length acc = Compensation.batch_lanes -> List.rev acc
    | [] -> Alcotest.fail "too few failing dies with distinct outcomes"
    | c :: rest ->
      let ((_, d, _, _) as die) = oracle_die c in
      let distinct =
        match List.rev acc with
        | [] -> true
        | first :: _ ->
          let s0, b0 = knobs first and s, b = knobs die in
          s <> s0 && b <> b0
      in
      pick (if d.Compensation.violating > 0 && distinct then die :: acc else acc) rest
  in
  let dies = pick [] candidates in
  let detect_batch () =
    List.iteri
      (fun k ((_, systematic, seed), _, _, _) ->
        Compensation.draw ctx sc k ~systematic ~raw:ignore (Srng.create seed))
      dies;
    Compensation.detect_lanes ctx sc Compensation.batch_lanes
  in
  let check_outcome label (e : Compensation.outcome) (g : Compensation.outcome) =
    Alcotest.(check bool) (label ^ " meets") e.Compensation.meets g.Compensation.meets;
    Alcotest.(check int) (label ^ " knob") e.Compensation.knob g.Compensation.knob;
    check_bits (label ^ " power") e.Compensation.power_mw g.Compensation.power_mw
  in
  detect_batch ();
  List.iteri
    (fun k ((pos, _, seed), _, skew_o, buffers_o) ->
      let label = Printf.sprintf "lane %d (%s die %d)" k pos seed in
      let d = Compensation.select sc k in
      ignore (vi sc d);
      check_outcome (label ^ ": skew") skew_o (skew sc d);
      check_outcome (label ^ ": buffers") buffers_o (buffers sc d))
    dies;
  Alcotest.(check bool) "skew tunes the last die" true
    ((skew sc (Compensation.select sc 0)).Compensation.knob > 0);
  detect_batch ();
  List.iteri
    (fun k ((pos, _, seed), (d_o : Compensation.detect), _, _) ->
      let label = Printf.sprintf "redetect lane %d (%s die %d)" k pos seed in
      let d = Compensation.select sc k in
      Alcotest.(check int) (label ^ ": violating") d_o.Compensation.violating
        d.Compensation.violating;
      check_bits (label ^ ": worst low") d_o.Compensation.worst_low_ns
        d.Compensation.worst_low_ns)
    dies

let test_scratch_reuse () =
  (* The census, the comparison sweep over all four strategies and the
     sampling estimator lease their per-worker scratches from the
     timing graph's free list, and the skew and buffer strategies their
     clock tree and buffer sites from the graph: once an op has run,
     the same op again builds no STA workspace.  A plain [scratch] is
     still a fresh one. *)
  let t, v = Lazy.force env in
  let workspaces = Metrics.counter "sta_workspace_total" in
  let sampling =
    { Wafer.default_sampling_config with
      Wafer.s_strata = 2; s_dies_per_round = 2; s_max_rounds = 2 }
  in
  let ops =
    [ ("Wafer.run", fun () -> ignore (Wafer.run t v wafer_cfg));
      ( "Compare.run",
        fun () -> ignore (Compare.run t v (compare_cfg Compensation.all_choices)) );
      ( "Wafer.estimate_at",
        fun () ->
          ignore (Wafer.estimate_at t ~position:Position.point_b sampling) ) ]
  in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) (fun () ->
      List.iter
        (fun (name, op) ->
          op ();
          let w0 = Metrics.counter_value workspaces in
          op ();
          Alcotest.(check int) (name ^ ": workspaces built by a second op") 0
            (Metrics.counter_value workspaces - w0))
        ops);
  let ctx = Compensation.context t in
  Alcotest.(check bool) "scratch is fresh" true
    (Compensation.scratch ctx != Compensation.scratch ctx);
  let first, second =
    Compensation.with_scratches ctx (fun lease ->
        let a = lease () in
        (a, lease ()))
  in
  Alcotest.(check bool) "leases are distinct" true (first != second);
  let again = Compensation.with_scratches ctx (fun lease -> lease ()) in
  Alcotest.(check bool) "a returned scratch is leased again" true
    (again == first || again == second)

let spec_end_label = function
  | Changed k -> Printf.sprintf "set changes at lane %d" k
  | Ran_out -> "four lanes, same set"
  | Met k -> Printf.sprintf "meets at lane %d" k
  | Capped _ -> "iteration cap"
  | Saturated _ -> "saturation"

let test_speculative_skew_settle () =
  (* The speculative skew settle against the oracle's sequential one,
     die by die over tuning ranges and step counts that end a
     speculation every way it can end: the failing set changes at lanes
     1, 2 and 3, a die meets on the lane a pass starts from, the step
     moves no flop (saturation), and the iteration cap.  A zero range
     (every step "moves" by 0) and a range below the 1e-12 ns
     saturation slack reach the cap, which a real range saturates
     first on this design.  Same outcome bits, and exactly the passes
     [speculation] reads off the sequential trace — so a settle that
     reads lanes past a changed failing set, or re-prices states it
     already has, fails here even where its outcome happens to agree. *)
  let t, v = Lazy.force env in
  let ctx = Compensation.context t in
  let sc = Compensation.scratch ctx in
  let o = Compensation_oracle.create t v in
  let passes = Metrics.counter "skew_settle_passes_total" in
  let seen = Hashtbl.create 16 in
  let n_cells = Pvtol_netlist.Netlist.cell_count (Flow.netlist t) in
  let maps =
    List.map (fun pos -> (pos.Position.label, Compensation.systematic ctx pos))
      Position.named
    @ [ ("slow", Array.make n_cells 52.0) ]
  in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) (fun () ->
      List.iter
        (fun (range_frac, steps) ->
          let apply =
            (Compensation.skew_tuning ~range_frac ~steps ctx).Compensation.fresh_apply ()
          in
          List.iter
            (fun (map_label, systematic) ->
              for seed = 1 to 6 do
                let label =
                  Printf.sprintf "range %.2f, %d steps, %s die %d" range_frac steps
                    map_label seed
                in
                let d = Compensation.detect ctx sc ~systematic (Srng.create seed) in
                let p0 = Metrics.counter_value passes in
                let got = apply sc d in
                let p = Metrics.counter_value passes - p0 in
                let d_o = Compensation_oracle.detect o ~systematic (Srng.create seed) in
                let expected = Compensation_oracle.skew_with ~range_frac ~steps o d_o in
                Alcotest.(check bool) (label ^ ": meets") expected.Compensation.meets
                  got.Compensation.meets;
                Alcotest.(check int) (label ^ ": knob") expected.Compensation.knob
                  got.Compensation.knob;
                check_bits (label ^ ": power") expected.Compensation.power_mw
                  got.Compensation.power_mw;
                let ends =
                  if d.Compensation.violating = 0 then []
                  else
                    speculation ~guess:o.Compensation_oracle.first_guess
                      o.Compensation_oracle.skew_trace o.Compensation_oracle.skew_end
                in
                Alcotest.(check int) (label ^ ": passes") (List.length ends) p;
                List.iter
                  (fun e ->
                    let l = spec_end_label e in
                    Hashtbl.replace seen l
                      (1 + Option.value ~default:0 (Hashtbl.find_opt seen l)))
                  ends
              done)
            maps)
        [ (0.10, 4); (0.30, 2); (0.05, 1); (0.50, 8); (0.02, 2); (0.0, 4);
          (1e-13, 1) ]);
  List.iter
    (fun l ->
      if not (Hashtbl.mem seen l) then Alcotest.failf "no speculation ends by %s" l)
    [ "set changes at lane 1"; "set changes at lane 2"; "set changes at lane 3";
      "meets at lane 0"; "saturation"; "iteration cap" ]

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
   or the worklist fails the suite.  Since the skew settle prices
   speculative lanes on the scratch's lane workspace and leases its
   tune states, the replay takes 0.03. *)
let max_words_per_die_cell = 0.1

(* What the buffer strategy's apply adds to that replay, same design
   and toolchain.  Its binding-endpoint search folded a (cid, delay)
   tuple and boxed a float per improving endpoint, and ran twice for
   the failing stage: 2.62 words per die per cell.  It now scans a
   per-apply array of endpoint arrivals with an index loop, filled once
   per die after its own STA pass: 0.12, mostly one boxed float per
   endpoint read out of the STA workspace.  It now reads the endpoint
   delays [detect_lanes] gathered into the scratch without boxing, and
   runs no pass: 0.003, the settle's closures.  The bound is about six
   times that. *)
let max_buffer_words_per_die_cell = 0.02

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

(* --- batched detect: [Wafer.tally] vs a per-die loop --- *)

module Welford = Pvtol_util.Stream_stats.Welford
module P2 = Pvtol_util.Stream_stats.P2
module Counter = Pvtol_util.Stream_stats.Counter
module Postsilicon = Pvtol_core.Postsilicon

(* A site's accumulator, counted die by die as [Wafer.site_tally]
   counts: the oracle side of the batch tests below. *)
let fresh_tally (strategies : Compensation.strategy array) =
  {
    Wafer.n_dies = 0;
    n_uncompensated = 0;
    delay_ns = Welford.create ();
    delay_p50 = P2.create 0.5;
    delay_p90 = P2.create 0.9;
    violating = Counter.create (List.length Compensation.analyzed + 1);
    strategies =
      Array.map
        (fun (s : Compensation.strategy) ->
          {
            Wafer.meets = 0;
            knob_sum = 0;
            power = Welford.create ();
            knob = Welford.create ();
            area = Welford.create ();
            knobs = Counter.create (s.Compensation.max_knob + 1);
          })
        strategies;
  }

let count_die (ta : Wafer.tally) (d : Compensation.detect) outcomes =
  ta.Wafer.n_dies <- ta.Wafer.n_dies + 1;
  if d.Compensation.violating = 0 then
    ta.Wafer.n_uncompensated <- ta.Wafer.n_uncompensated + 1;
  let delay = d.Compensation.worst_low_ns in
  Welford.add ta.Wafer.delay_ns delay;
  P2.add ta.Wafer.delay_p50 delay;
  P2.add ta.Wafer.delay_p90 delay;
  Counter.add ta.Wafer.violating d.Compensation.violating;
  Array.iteri
    (fun i (o : Compensation.outcome) ->
      let st = ta.Wafer.strategies.(i) in
      if o.Compensation.meets then st.Wafer.meets <- st.Wafer.meets + 1;
      st.Wafer.knob_sum <- st.Wafer.knob_sum + o.Compensation.knob;
      Welford.add st.Wafer.power o.Compensation.power_mw;
      Welford.add st.Wafer.knob (float_of_int o.Compensation.knob);
      Welford.add st.Wafer.area o.Compensation.area_um2;
      Counter.add st.Wafer.knobs o.Compensation.knob)
    outcomes

(* Per site its map, then per stream and die one [Compensation.detect]
   and each strategy's apply, on one scratch: the loop [Wafer.tally]
   runs four dies at a time. *)
let per_die_tallies ctx strategies sites =
  let sc = Compensation.scratch ctx in
  let applies =
    Array.map (fun s -> s.Compensation.fresh_apply ()) strategies
  in
  Array.map
    (fun (site : Wafer.site) ->
      let ta = fresh_tally strategies in
      let systematic = Compensation.systematic ctx site.Wafer.position in
      Array.iter
        (fun rng ->
          for _ = 1 to site.Wafer.dies_per_stream do
            let d = Compensation.detect ctx sc ~systematic rng in
            count_die ta d (Array.map (fun apply -> apply sc d) applies)
          done)
        site.Wafer.streams;
      ta)
    sites

(* Sites of 1, 2, 3 and 5 dies per stream on one or two streams, so
   that batches straddle sites and streams and chunks end in tails of
   one, two and three lanes. *)
let mixed_sites () =
  List.mapi
    (fun i (streams, dies) ->
      {
        Wafer.position =
          Position.at_xy ~x_frac:(float_of_int i /. 7.0)
            ~y_frac:(float_of_int (7 - i) /. 7.0);
        streams = Array.init streams (fun f -> Srng.create ((100 * i) + f));
        dies_per_stream = dies;
      })
    [ (1, 1); (2, 1); (1, 2); (2, 3); (1, 3); (2, 2); (2, 5); (1, 5) ]
  |> Array.of_list

let with_pool domains f =
  let p = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

let same_tallies label expected got =
  Alcotest.(check int) (label ^ ": sites") (Array.length expected)
    (Array.length got);
  Array.iteri
    (fun i e ->
      if Marshal.to_string e [] <> Marshal.to_string got.(i) [] then
        Alcotest.failf "%s: site %d accumulator differs" label i)
    expected

let test_batched_tally_matches_per_die () =
  (* The census's [tally] (four dies per detect pass) against the
     per-die loop, accumulator for accumulator: on mixed sites and on
     2-field grids of 1, 2, 3 and 5 dies per cell, with the paper's two
     strategies and with all four, on 1 and 2 domains.  Chip-wide ahead
     of the islands reads the settle's all-high stamp only if it names
     its own die, not another lane of the batch. *)
  let t, v = Lazy.force env in
  let ctx = Compensation.context t in
  let pair = [| Compensation.Vi; Compensation.Chipwide |] in
  let all = Array.of_list Compensation.all_choices in
  let grid dies () =
    Wafer.grid_sites ~who:"test" v
      { Wafer.nx = 2; ny = 2; dies_per_cell = dies; fields = 2; seed = 7;
        direction = Island.Vertical }
  in
  let cases =
    [ ("mixed sites", mixed_sites, pair);
      ("mixed sites, chip-wide first", mixed_sites,
       [| Compensation.Chipwide; Compensation.Vi |]);
      ("mixed sites, all", mixed_sites, all) ]
    @ List.map
        (fun dies -> (Printf.sprintf "2x2x%dx2 grid" dies, grid dies, pair))
        [ 1; 2; 3; 5 ]
    @ [ ("2x2x3x2 grid, all", grid 3, all) ]
  in
  List.iter
    (fun (label, sites, choices) ->
      let strategies = Array.map (Compensation.build t ctx v) choices in
      let expected = per_die_tallies ctx strategies (sites ()) in
      List.iter
        (fun domains ->
          let got =
            with_pool domains (fun pool ->
                Wafer.tally ~pool ctx strategies Wafer.site_tally (sites ()))
          in
          same_tallies (Printf.sprintf "%s, %d domains" label domains)
            expected got)
        [ 1; 2 ])
    cases

let test_batched_compare_matches_per_die () =
  (* [Compare.run] with every strategy on a 2-field grid whose sites
     hold 6 dies (a batch of four and a tail of two each), against the
     same projection of the per-die loop's tallies. *)
  let t, v = Lazy.force env in
  let cfg =
    { Compare.nx = 3; ny = 1; dies_per_cell = 3; fields = 2; seed = 7;
      direction = Island.Vertical; choices = Compensation.all_choices }
  in
  let ctx = Compensation.context t in
  let strategies =
    Array.of_list (List.map (Compensation.build t ctx v) cfg.Compare.choices)
  in
  let sites =
    Wafer.grid_sites ~who:"test" v
      { Wafer.nx = 3; ny = 1; dies_per_cell = 3; fields = 2; seed = 7;
        direction = Island.Vertical }
  in
  let total =
    Wafer.tally_total strategies (per_die_tallies ctx strategies sites)
  in
  let dies = float_of_int total.Wafer.n_dies in
  List.iter
    (fun domains ->
      let r = with_pool domains (fun pool -> Compare.run ~pool t v cfg) in
      let l = Printf.sprintf "%d domains" domains in
      Alcotest.(check int) (l ^ ": dies") total.Wafer.n_dies r.Compare.dies;
      check_bits (l ^ ": uncompensated yield")
        (float_of_int total.Wafer.n_uncompensated /. dies)
        r.Compare.yield_uncompensated;
      List.iteri
        (fun i (res : Compare.strategy_result) ->
          let st = total.Wafer.strategies.(i) in
          let l = l ^ ": " ^ res.Compare.name in
          check_bits (l ^ " yield")
            (float_of_int st.Wafer.meets /. dies) res.Compare.yield;
          check_bits (l ^ " power") (Welford.mean st.Wafer.power)
            res.Compare.mean_power_mw;
          check_bits (l ^ " knob") (Welford.mean st.Wafer.knob)
            res.Compare.mean_knob;
          Alcotest.(check int) (l ^ " knob total") st.Wafer.knob_sum
            res.Compare.knob_total;
          check_bits (l ^ " area") (Welford.mean st.Wafer.area)
            res.Compare.mean_area_um2)
        r.Compare.results)
    [ 1; 2 ]

let test_batched_postsilicon_matches_per_die () =
  (* [Postsilicon.run]'s one-die sites batch four chips per pass; 9 and
     11 chips end in tails of one and three.  Each chip against its own
     [detect] plus the island and chip-wide applies. *)
  let t, v = Lazy.force env in
  let k = Postsilicon.kernel t v in
  let ctx = k.Compensation.ctx in
  let sc = Compensation.scratch ctx in
  let vi = k.Compensation.vi.Compensation.fresh_apply () in
  let cw = k.Compensation.cw.Compensation.fresh_apply () in
  let n = Pvtol_netlist.Netlist.cell_count (Flow.netlist t) in
  let seed = 7 in
  List.iter
    (fun n_chips ->
      let expected =
        List.init n_chips (fun i ->
            let rng = Srng.create_after ~uniforms:i ~gaussians:(i * n) seed in
            let frac = Srng.uniform rng in
            let systematic =
              Compensation.systematic ctx (Position.at_fraction frac)
            in
            let d = Compensation.detect ctx sc ~systematic rng in
            let ovi = vi sc d in
            let ocw = cw sc d in
            ( {
                Postsilicon.diagonal_frac = frac;
                violating = d.Compensation.violating;
                raised = ovi.Compensation.knob;
                meets_uncompensated = d.Compensation.violating = 0;
                meets_compensated = ovi.Compensation.meets;
                meets_chip_wide = ocw.Compensation.meets;
              },
              (ovi.Compensation.power_mw, ocw.Compensation.power_mw) ))
      in
      let per_chip x = x /. float_of_int n_chips in
      let power f =
        per_chip (List.fold_left (fun a (_, p) -> a +. f p) 0.0 expected)
      in
      List.iter
        (fun domains ->
          let s =
            with_pool domains (fun pool ->
                Postsilicon.run ~n_chips ~seed ~pool t v)
          in
          let l = Printf.sprintf "%d chips, %d domains" n_chips domains in
          Alcotest.(check bool) (l ^ ": chips") true
            (s.Postsilicon.chips = List.map fst expected);
          check_bits (l ^ ": island power") (power fst)
            s.Postsilicon.mean_power_islands_mw;
          check_bits (l ^ ": chip-wide power") (power snd)
            s.Postsilicon.mean_power_chip_wide_mw)
        [ 1; 2 ])
    [ 9; 11 ]

(* --- harness behaviour --- *)

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
  let t, v = Lazy.force env in
  let r = Compare.run t v (compare_cfg Compensation.all_choices) in
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
      Alcotest.test_case "chip-wide stamp is per die" `Quick
        test_chipwide_stamp_per_die;
      Alcotest.test_case "speculative skew settle = sequential" `Quick
        test_speculative_skew_settle;
      Alcotest.test_case "lane state across strategies" `Quick
        test_lane_state_across_strategies;
      Alcotest.test_case "scratch reuse across ops" `Quick test_scratch_reuse;
      Alcotest.test_case "per-die allocation bound" `Quick
        test_die_allocation_bound;
      Alcotest.test_case "batched tally = per-die loop (census)" `Quick
        test_batched_tally_matches_per_die;
      Alcotest.test_case "batched tally = per-die loop (compare)" `Quick
        test_batched_compare_matches_per_die;
      Alcotest.test_case "batched tally = per-die loop (postsilicon)" `Quick
        test_batched_postsilicon_matches_per_die;
      Alcotest.test_case "compare validation" `Quick test_compare_validation;
      Alcotest.test_case "choice names roundtrip" `Quick
        test_choice_names_roundtrip;
      Alcotest.test_case "report shapes (render, json)" `Quick
        test_report_shapes;
    ] )
