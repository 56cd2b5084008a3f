module Sg = Stage
open Pvtol_netlist
module Table = Pvtol_util.Table
module Histo = Pvtol_util.Histo
module Stats = Pvtol_util.Stats
module Field = Pvtol_variation.Field
module Position = Pvtol_variation.Position
module MC = Pvtol_ssta.Monte_carlo
module Scenario = Pvtol_ssta.Scenario
module Sensors = Pvtol_ssta.Sensors
module Sta = Pvtol_timing.Sta
module Paths = Pvtol_timing.Paths
module Power = Pvtol_power.Power
module Placement = Pvtol_place.Placement
module Density = Pvtol_place.Density
module Geom = Pvtol_util.Geom

(* A context is just a flow handle: the stage graph memoizes every
   intermediate (including both slicing variants), so nothing needs to
   be precomputed or re-threaded by hand here. *)
type context = Flow.t

let make_context ?config () = Flow.prepare ?config ()
let vertical t = Flow.variant t Island.Vertical
let horizontal t = Flow.variant t Island.Horizontal

let heading title =
  let bar = String.make (String.length title) '=' in
  Printf.sprintf "%s\n%s\n" title bar

(* ------------------------------------------------------------------ *)

let fig2_lgate_map () =
  let field = Field.default in
  heading "Fig. 2 — Systematic-variation-aware Lgate map"
  ^ Field.render_map field ~chip_mm:Position.chip_mm
  ^ Printf.sprintf
      "Named die positions on the chip diagonal: %s\n"
      (String.concat ", "
         (List.map
            (fun (p : Position.t) ->
              Printf.sprintf "%s=(%.1f, %.1f)mm" p.Position.label
                p.Position.origin_x_mm p.Position.origin_y_mm)
            Position.named))

(* ------------------------------------------------------------------ *)

let table1_breakdown (t : Flow.t) =
  let nl = Flow.netlist t in
  let clock = Flow.clock t in
  let power = Flow.power_at t ~position:Position.point_d Flow.Baseline_low in
  let total_area = Netlist.area nl in
  let total_mw = Power.total_mw power.Power.total in
  let tbl = Table.create ~header:[ ""; "Area"; "Power" ] in
  List.iter
    (fun stage ->
      let area = Netlist.area_of_stage nl stage in
      let p =
        match Power.stage_breakdown power stage with
        | Some b -> Power.total_mw b
        | None -> 0.0
      in
      if area > 0.0 then
        Table.add_row tbl
          [
            Stage.name stage;
            Table.pcell (area /. total_area);
            Table.pcell (p /. total_mw);
          ])
    [ Stage.Reg_file; Stage.Execute; Stage.Decode; Stage.Writeback;
      Stage.Fetch; Stage.Pipe_regs ];
  let r = Flow.nominal t in
  let crit_text =
    match Paths.critical (Flow.sta t) ~delays:(Sta.nominal_delays (Flow.sta t)) r with
    | Some path ->
      let total_hops = List.length path.Paths.hops in
      let shares = Paths.stage_share (Flow.sta t) path in
      String.concat ", "
        (List.filteri (fun i _ -> i < 3) shares
        |> List.map (fun (u, n) ->
               Printf.sprintf "%s (%.0f%%)" u
                 (100.0 *. float_of_int n /. float_of_int total_hops)))
    | None -> "n/a"
  in
  heading "Table 1 — Area and power breakdown for the VEX architecture"
  ^ Table.render tbl
  ^ Printf.sprintf
      "\nImplementation summary (§4.2):\n\
      \  cells: %d   nets: %d\n\
      \  area: %.0f um^2   row utilization target: %.0f%%\n\
      \  fmax: %.1f MHz (clock %.3f ns)\n\
      \  total power (FIR benchmark): %.2f mW   leakage share: %.2f%%\n\
      \  critical path through: %s\n"
      (Netlist.cell_count nl) (Netlist.net_count nl) total_area
      (100.0
      *. (Flow.placement t).Placement.floorplan.Pvtol_place.Floorplan.utilization)
      (1000.0 /. clock) clock total_mw
      (100.0 *. power.Power.total.Power.leakage_mw /. total_mw)
      crit_text

(* ------------------------------------------------------------------ *)

let fig3_distributions (t : Flow.t) =
  let mc = Flow.mc t Position.point_a in
  let clock = Flow.clock t in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (heading "Fig. 3 — Critical-path slack distribution per stage @ point A");
  List.iter
    (fun (ss : MC.stage_stats) ->
      if ss.MC.stage <> Stage.Fetch then begin
        let slacks = Array.map (fun d -> clock -. d) ss.MC.samples in
        let s = Stats.summarize slacks in
        Buffer.add_string buf
          (Printf.sprintf
             "%s: slack mean %+.3f ns, sigma %.4f ns, 3-sigma worst %+.3f ns\n"
             (Stage.name ss.MC.stage) s.Stats.mean s.Stats.stddev
             (s.Stats.mean -. (3.0 *. s.Stats.stddev)));
        Buffer.add_string buf
          (Printf.sprintf
             "  normal fit mu=%.3f sigma=%.4f; chi2=%.2f (dof %d, crit %.2f) => %s\n"
             ss.MC.fit.Pvtol_util.Fit.mu ss.MC.fit.Pvtol_util.Fit.sigma
             ss.MC.gof.Pvtol_util.Fit.statistic ss.MC.gof.Pvtol_util.Fit.dof
             ss.MC.gof.Pvtol_util.Fit.critical
             (if ss.MC.gof.Pvtol_util.Fit.accepted then
                "normality accepted at 95%"
              else "normality rejected at 95%"));
        let h = Histo.of_samples ~bins:13 slacks in
        Buffer.add_string buf (Histo.render ~width:44 h)
      end)
    mc.MC.stages;
  Buffer.add_string buf
    "(vertical axis: slack bins, ns; negative slack = violation)\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)

let scenarios_summary (t : Flow.t) =
  let scenarios = Flow.scenarios t in
  let clock = Flow.clock t in
  let tbl =
    Table.create
      ~header:[ "Position"; "Scenario"; "Decode"; "Execute"; "Write Back" ]
  in
  List.iter
    (fun (sc : Scenario.t) ->
      let cell stage =
        match
          List.find_opt
            (fun (s : Scenario.stage_slack) -> Stage.equal s.Scenario.stage stage)
            sc.Scenario.stage_slacks
        with
        | Some s ->
          Printf.sprintf "%+.3f%s" s.Scenario.slack
            (if s.Scenario.violates then " !" else "")
        | None -> "-"
      in
      Table.add_row tbl
        [
          sc.Scenario.position.Position.label;
          string_of_int sc.Scenario.index;
          cell Stage.Decode;
          cell Stage.Execute;
          cell Stage.Writeback;
        ])
    scenarios;
  let mc_a = Flow.mc t Position.point_a in
  let worst_ex =
    match MC.stage_stats mc_a Stage.Execute with
    | Some ss -> MC.three_sigma_delay ss
    | None -> clock
  in
  heading "§4.4 — Timing-violation scenarios along the chip diagonal"
  ^ Table.render tbl
  ^ Printf.sprintf
      "\n('!' = 3-sigma violation; slack in ns vs the %.3f ns clock)\n\
       Worst-case frequency degradation @ A: %.1f%% (paper: ~10%%)\n"
      clock
      (100.0 *. (worst_ex -. clock) /. clock)

(* ------------------------------------------------------------------ *)

let razor_sites (t : Flow.t) =
  let mc = Flow.mc t Position.point_a in
  let plan = Sensors.select mc (Flow.netlist t) in
  let tbl = Table.create ~header:[ "Stage"; "Monitored flops" ] in
  List.iter
    (fun (s, n) -> Table.add_row tbl [ Stage.name s; string_of_int n ])
    plan.Sensors.per_stage;
  heading "§4.4 — Razor sensing sites (paths critical under variation @ A)"
  ^ Table.render tbl
  ^ Printf.sprintf
      "\nSensor area overhead: %.0f um^2 (%.2f%% of core)\n\
       (paper: 12 monitored paths in the execute stage at point A)\n"
      plan.Sensors.area_overhead
      (100.0 *. plan.Sensors.area_overhead_frac)

(* ------------------------------------------------------------------ *)

let island_text (v : Flow.variant) =
  let part = v.Flow.slicing.Slicing.partition in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%s slicing, growing from the %s side (density-driven):\n"
       (String.capitalize_ascii (Island.direction_name v.Flow.direction))
       (Density.side_name part.Island.side));
  Array.iter
    (fun (isl : Island.t) ->
      Buffer.add_string buf
        (Printf.sprintf
           "  VI%d: region (%.0f,%.0f)-(%.0f,%.0f) um, %.1f%% of core, %d cells\n"
           isl.Island.index isl.Island.region.Geom.llx isl.Island.region.Geom.lly
           isl.Island.region.Geom.urx isl.Island.region.Geom.ury
           (100.0 *. Island.area_fraction part isl.Island.index)
           (Array.length isl.Island.cells)))
    part.Island.islands;
  Buffer.contents buf

let fig4_islands ctx =
  heading "Fig. 4 — Voltage-island generation"
  ^ island_text (vertical ctx) ^ island_text (horizontal ctx)

(* ------------------------------------------------------------------ *)

let ls_power_share (t : Flow.t) (v : Flow.variant) ~raised ~position =
  let report =
    Flow.power_at t ~position (Flow.Islands (v.Flow.direction, raised))
  in
  let first = v.Flow.shifted.Level_shifter.first_ls in
  let ls = Power.sum_cells report (fun cid -> cid >= first) in
  Power.total_mw ls /. Power.total_mw report.Power.total

let table2_level_shifters ctx =
  let tbl = Table.create ~header:[ ""; "Horizontal Slicing"; "Vertical Slicing" ] in
  let h = horizontal ctx and v = vertical ctx in
  let row name f = Table.add_row tbl [ name; f h; f v ] in
  row "Number of LS" (fun x ->
      string_of_int x.Flow.shifted.Level_shifter.count);
  row "LS area" (fun x ->
      Table.pcell x.Flow.shifted.Level_shifter.ls_area_frac);
  List.iter
    (fun (raised, pos, label) ->
      row label (fun x ->
          Table.pcell (ls_power_share ctx x ~raised ~position:pos)))
    [
      (3, Position.point_a, "LS tot. power (point A)");
      (2, Position.point_b, "LS tot. power (point B)");
      (1, Position.point_c, "LS tot. power (point C)");
    ];
  row "Post-LS perf. degradation" (fun x -> Table.pcell x.Flow.degradation);
  heading "Table 2 — Level-shifter overhead w.r.t. processor area/power"
  ^ Table.render tbl

(* ------------------------------------------------------------------ *)

let power_configs _ctx =
  (* (label, scenario position, configuration) in Fig. 5 order. *)
  [
    ("Chip-wide high Vdd", Position.point_a, Flow.Chip_wide_high);
    ("3 VI HOR @ A", Position.point_a, Flow.Islands (Island.Horizontal, 3));
    ("3 VI VER @ A", Position.point_a, Flow.Islands (Island.Vertical, 3));
    ("2 VI HOR @ B", Position.point_b, Flow.Islands (Island.Horizontal, 2));
    ("2 VI VER @ B", Position.point_b, Flow.Islands (Island.Vertical, 2));
    ("1 VI HOR @ C", Position.point_c, Flow.Islands (Island.Horizontal, 1));
    ("1 VI VER @ C", Position.point_c, Flow.Islands (Island.Vertical, 1));
  ]

let fig5_total_power ctx =
  let t = ctx in
  let reference =
    Power.total_mw (Flow.power_at t ~position:Position.point_a Flow.Chip_wide_high).Power.total
  in
  let tbl =
    Table.create ~header:[ "Configuration"; "Total power (mW)"; "Normalized"; "Saving" ]
  in
  List.iter
    (fun (label, pos, cfg) ->
      let p = Power.total_mw (Flow.power_at t ~position:pos cfg).Power.total in
      Table.add_row tbl
        [
          label;
          Table.fcell ~decimals:2 p;
          Table.fcell ~decimals:3 (p /. reference);
          Table.pcell ~decimals:1 (1.0 -. (p /. reference));
        ])
    (power_configs ctx);
  let bars =
    List.map
      (fun (label, pos, cfg) ->
        (label, Power.total_mw (Flow.power_at t ~position:pos cfg).Power.total /. reference))
      (power_configs ctx)
  in
  heading "Fig. 5 — Total power per timing-violation scenario"
  ^ Table.render tbl ^ "\n"
  ^ Table.bar_chart ~unit_label:"x" bars
  ^ "\n(all configurations at the nominal fmax, as in §5; the chip-wide\n\
     design carries no level shifters)\n"

let fig6_leakage ctx =
  let t = ctx in
  let leak cfg pos =
    (Flow.power_at t ~position:pos cfg).Power.total.Power.leakage_mw
  in
  let reference = leak Flow.Chip_wide_high Position.point_a in
  let tbl =
    Table.create ~header:[ "Configuration"; "Leakage (mW)"; "Normalized" ]
  in
  List.iter
    (fun (label, pos, cfg) ->
      let l = leak cfg pos in
      Table.add_row tbl
        [ label; Table.fcell ~decimals:4 l; Table.fcell ~decimals:3 (l /. reference) ])
    (power_configs ctx);
  let bars =
    List.map
      (fun (label, pos, cfg) -> (label, leak cfg pos /. reference))
      (power_configs ctx)
  in
  heading "Fig. 6 — Leakage power per timing-violation scenario"
  ^ Table.render tbl ^ "\n"
  ^ Table.bar_chart ~unit_label:"x" bars

(* ------------------------------------------------------------------ *)

let energy_note ctx =
  let t = ctx in
  let chip =
    Power.total_mw (Flow.power_at t ~position:Position.point_a Flow.Chip_wide_high).Power.total
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (heading "§5 — Energy once the VI slowdown is accounted for");
  List.iter
    (fun (v : Flow.variant) ->
      let p =
        Power.total_mw
          (Flow.power_at t ~position:Position.point_a
             (Flow.Islands (v.Flow.direction, 3)))
            .Power.total
      in
      let slow = 1.0 +. Float.max 0.0 v.Flow.degradation in
      Buffer.add_string buf
        (Printf.sprintf
           "  3 VI %-10s power ratio %.3f, slowdown %.1f%% => energy ratio %.3f\n"
           (Island.direction_name v.Flow.direction) (p /. chip)
           (100.0 *. (slow -. 1.0))
           (p /. chip *. slow)))
    [ vertical ctx; horizontal ctx ];
  Buffer.add_string buf
    "(energy ratios track the power ratios, as the paper observes)\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)

let compensation_check ctx =
  let t = ctx in
  let clock = Flow.clock t in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (heading "Validation — Monte Carlo with islands raised (per scenario)");
  List.iter
    (fun (v : Flow.variant) ->
      let part = v.Flow.slicing.Slicing.partition in
      let domains = Island.domains part (Flow.placement t) in
      List.iter
        (fun (raised, pos) ->
          let vdd =
            Island.vdd_assignment part ~domains ~raised
              ~lib:(Flow.netlist t).Netlist.lib
          in
          let mc =
            MC.run
              ~config:{ MC.samples = 150; seed = (Flow.config t).Flow.mc_seed + 9 }
              ~vdd ~sampler:(Flow.sampler t) ~sta:(Flow.sta t)
              ~placement:(Flow.placement t) ~position:pos ()
          in
          let worst_residual =
            List.fold_left
              (fun acc (ss : MC.stage_stats) ->
                if ss.MC.stage = Stage.Fetch then acc
                else Float.max acc (MC.three_sigma_delay ss -. clock))
              neg_infinity mc.MC.stages
          in
          Buffer.add_string buf
            (Printf.sprintf
               "  %s %d VI @ %s: worst stage 3-sigma residual %+.3f ns (%s)\n"
               (Island.direction_name v.Flow.direction) raised
               pos.Position.label worst_residual
               (if worst_residual <= 0.01 *. clock then "compensated"
                else "NOT compensated")))
        [ (1, Position.point_c); (2, Position.point_b); (3, Position.point_a) ])
    [ vertical ctx; horizontal ctx ];
  Buffer.contents buf

(* ------------------------------------------------------------------ *)

let grouping_ablation ctx =
  let t = ctx in
  let tbl =
    Table.create
      ~header:
        [ "Strategy"; "High-Vdd cells (VI3)"; "Level shifters"; "Power domains";
          "Power @ 3 raised" ]
  in
  let process = (Flow.netlist t).Netlist.lib.Pvtol_stdcell.Cell.process in
  let low = process.Pvtol_stdcell.Process.vdd_low in
  let high = process.Pvtol_stdcell.Process.vdd_high in
  ignore low;
  (* Strategy power comparison on the unmodified netlist (no shifters),
     so only the raised-capacitance difference shows. *)
  let wire = Array.get (Placement.wire_lengths (Flow.placement t)) in
  let power_of domains =
    Power.total_mw
      (Power.analyze
         ~vdd:(fun cid -> if domains.(cid) <= 3 then high else low)
         ~activity:(Flow.activity t)
         ~wire_length:wire
         ~clock_ns:(Flow.clock t) (Flow.netlist t))
        .Power.total
  in
  let row_of_domains name domains checks =
    let n = Array.length domains in
    let raised3 = Array.fold_left (fun acc d -> if d <= 3 then acc + 1 else acc) 0 domains in
    let ls = Logic_grouping.count_crossings (Flow.netlist t) ~domains in
    let frag = Logic_grouping.fragmentation (Flow.placement t) ~domains ~raised:3 in
    Table.add_row tbl
      [
        name;
        Printf.sprintf "%d (%.0f%%)" raised3 (100.0 *. float_of_int raised3 /. float_of_int n);
        string_of_int ls;
        string_of_int frag;
        Printf.sprintf "%.2f mW" (power_of domains);
      ];
    ignore checks
  in
  List.iter
    (fun (name, v) ->
      let part = v.Flow.slicing.Slicing.partition in
      let domains = Island.domains part (Flow.placement t) in
      row_of_domains name domains v.Flow.slicing.Slicing.checks)
    [ ("vertical slicing", vertical ctx); ("horizontal slicing", horizontal ctx) ];
  (* Quadrant growth: the "further cell grouping strategies" future
     work. *)
  (try
     let q = Flow.islands t Island.Quadrant in
     let domains = Island.domains q.Slicing.partition (Flow.placement t) in
     row_of_domains "quadrant growth" domains q.Slicing.checks
   with Sg.Stage_error e ->
     Table.add_row tbl [ "quadrant growth"; "-"; "-"; e.Sg.message ]);
  (* Logic-based selection: the baseline of the paper's reference [12]. *)
  (match Flow.logic_grouping t with
  | Ok lg ->
    row_of_domains "logic-based (units)" lg.Logic_grouping.domains
      lg.Logic_grouping.checks
  | Error m -> Table.add_row tbl [ "logic-based (units)"; "-"; "-"; m ]);
  heading "Ablation — cell-grouping strategy (section 3's argument)"
  ^ Table.render tbl
  ^ "\n('Power domains' counts physically disjoint high-Vdd patches on a\n\
     density grid — each would need its own supply routing.  Slab and\n\
     quadrant islands are contiguous by construction.  The logic-based\n\
     baseline's shifter demand and contiguity depend entirely on how\n\
     unit-clustered the placement happens to be — here the global placer\n\
     seeds unit clusters, so it fares well; under the interleaved\n\
     performance-driven placements the paper assumes, the same selection\n\
     scatters across the die.  That placement-dependence, which the\n\
     geometric slices do not have, is exactly the predictability argument\n\
     of §3.)\n"

let clock_tree_note ctx =
  let t = ctx in
  let module CT = Pvtol_timing.Clock_tree in
  let sta = Flow.sta t in
  let clock = Flow.clock t in
  let flops = Sta.flop_ids sta in
  let ct = CT.synthesize (Flow.placement t) ~flops in
  let delays = Sta.nominal_delays sta in
  let r0 = Flow.nominal t in
  let r1 = Sta.analyze ~skew:(CT.skew_of ct) sta ~delays in
  heading "Clock-tree synthesis (ideal-clock assumption check)"
  ^ Printf.sprintf
      "  %d flops served by %d buffers over %d levels, %.0f um of clock wire\n\
      \  global skew: %.4f ns = %.1f%% of the %.3f ns clock\n\
      \  nominal worst path: %.3f ns ideal clock vs %.3f ns with tree skew (%+.2f%%)\n\
       (the flow analyses timing with an ideal clock, as the paper's\n\
       PrimeTime setup does; the synthesized tree's skew shifts the\n\
       critical path by well under the variation effects under study)\n"
      (Array.length flops) ct.CT.n_buffers ct.CT.levels ct.CT.wirelength
      ct.CT.skew
      (100.0 *. ct.CT.skew /. clock)
      clock r0.Sta.worst r1.Sta.worst
      (100.0 *. (r1.Sta.worst -. r0.Sta.worst) /. r0.Sta.worst)

let ssta_crosscheck ctx =
  let t = ctx in
  let module An = Pvtol_ssta.Analytic in
  let tbl =
    Table.create
      ~header:
        [ "Position / stage"; "MC mean"; "MC 3-sigma"; "Analytic mean";
          "Analytic 3-sigma" ]
  in
  List.iter
    (fun pos ->
      let mc = Flow.mc t pos in
      let systematic =
        Pvtol_variation.Sampler.systematic_lgates (Flow.sampler t)
          (Flow.placement t) pos
      in
      let an =
        An.analyze ~sta:(Flow.sta t) ~sampler:(Flow.sampler t) ~systematic ()
      in
      List.iter
        (fun s ->
          match (MC.stage_stats mc s, List.assoc_opt s an.An.stage_delay) with
          | Some ss, Some g ->
            Table.add_row tbl
              [
                Printf.sprintf "%s %s" pos.Position.label (Stage.name s);
                Table.fcell ss.MC.summary.Pvtol_util.Stats.mean;
                Table.fcell (MC.three_sigma_delay ss);
                Table.fcell g.An.mean;
                Table.fcell (An.three_sigma g);
              ]
          | _ -> ())
        [ Stage.Decode; Stage.Execute; Stage.Writeback ])
    [ Position.point_a; Position.point_c ];
  heading "Validation — analytic (Clark) SSTA vs Monte Carlo"
  ^ Table.render tbl
  ^ "\n(single-traversal moment propagation with Clark's max\n\
     approximation; agreement within a fraction of a percent confirms\n\
     both engines and lets island-growth checks run hundreds of times\n\
     faster than a full Monte Carlo would)\n"

let alternatives_comparison ctx =
  let t = ctx in
  let clock = Flow.clock t in
  let process = (Flow.netlist t).Netlist.lib.Pvtol_stdcell.Cell.process in
  let mc = Flow.mc t Position.point_a in
  let three_sigma s =
    Option.map MC.three_sigma_delay (MC.stage_stats mc s)
  in
  let worst =
    List.fold_left
      (fun acc s -> match three_sigma s with Some d -> Float.max acc d | None -> acc)
      0.0 [ Stage.Decode; Stage.Execute; Stage.Writeback ]
  in
  let p_low =
    Power.total_mw (Flow.power_at t Flow.Baseline_low).Power.total
  in
  let p_chip =
    Power.total_mw (Flow.power_at t Flow.Chip_wide_high).Power.total
  in
  let p_vi =
    Power.total_mw
      (Flow.power_at t (Flow.Islands (Island.Vertical, 3))).Power.total
  in
  (* Clock-skew retiming: optimal skews against each die's 3-sigma
     stage delays. *)
  let retime = Retiming.bound ~delay_of:three_sigma in
  (* Adaptive body bias matching the chip-wide AVS speed-up. *)
  let speedup = worst /. clock in
  let abb_text =
    try
      let vbb = Pvtol_stdcell.Process.abb_for_speedup process ~speedup in
      let leak_x =
        Pvtol_stdcell.Process.abb_leakage_scale process ~vbb
          ~lgate_nm:process.Pvtol_stdcell.Process.l_nominal_nm
      in
      let low_report = Flow.power_at t Flow.Baseline_low in
      let p_abb =
        p_low
        +. (low_report.Power.total.Power.leakage_mw *. (leak_x -. 1.0))
      in
      Printf.sprintf
        "  chip-wide ABB        f = 100%%   %.2f mW  (needs Vbb = %.2f V forward; leakage x%.1f)\n"
        p_abb vbb leak_x
    with Invalid_argument _ ->
      "  chip-wide ABB        infeasible within 1V forward bias\n"
  in
  heading "§1 — compensation alternatives at the worst-case die (point A)"
  ^ Printf.sprintf
      "nominal clock %.3f ns; 3-sigma worst stage delay %.3f ns (%.1f%% slow)\n\n"
      clock worst (100.0 *. (speedup -. 1.0))
  ^ Printf.sprintf
      "  guard-banding        f = %.1f%% of nominal   %.2f mW  (margins added at design time)\n"
      (100.0 /. speedup) p_low
  ^ Printf.sprintf
      "  skew retiming        f = %.1f%% of nominal   %.2f mW  (binding loop: %s)\n"
      (100.0 *. clock /. retime.Retiming.t_retimed)
      p_low
      (String.concat "->" (List.map Stage.name retime.Retiming.binding_loop))
  ^ Printf.sprintf "  chip-wide AVS        f = 100%%   %.2f mW\n" p_chip
  ^ abb_text
  ^ Printf.sprintf "  voltage islands (3)  f = 100%%   %.2f mW\n" p_vi
  ^ "\nRetiming buys almost nothing here: systematic variation slows every\n\
     stage together and the execute forwarding loop forbids borrowing —\n\
     the paper's §1 argument.  ABB matches AVS's frequency but pays an\n\
     exponential leakage multiplier (mild in absolute terms only because\n\
     this library is low-power); the islands trade a small shifter\n\
     overhead for not raising the whole chip.\n"

let routing_note ctx =
  let t = ctx in
  let module Router = Pvtol_place.Router in
  let tbl =
    Table.create
      ~header:
        [ "Design"; "Routed wire"; "Detour vs HPWL"; "Mean edge util";
          "Max edge util"; "Overflowed edges" ]
  in
  let row name placement =
    let r = Router.route placement in
    Table.add_row tbl
      [
        name;
        Printf.sprintf "%.2e um" r.Router.total_um;
        Printf.sprintf "x%.2f" (r.Router.total_um /. r.Router.total_hpwl_um);
        Table.pcell ~decimals:0 r.Router.mean_utilization;
        Table.pcell ~decimals:0 r.Router.max_utilization;
        string_of_int r.Router.overflowed_edges;
      ];
    r
  in
  let base = row "placed (pre-LS)" (Flow.placement t) in
  let _shifted =
    row "with level shifters (vertical)"
      (vertical ctx).Flow.shifted.Level_shifter.placement
  in
  (* Timing with routed lengths instead of the corrected-HPWL estimate. *)
  let sta_routed =
    Sta.build (Flow.netlist t)
      ~wire_length:(Router.wire_length base)
      ~capture:(Flow.design t).Pvtol_vex.Vex_core.capture_stage
  in
  let r = Sta.analyze sta_routed ~delays:(Sta.nominal_delays sta_routed) in
  heading "Extension — global routing (estimate vs routed)"
  ^ Table.render tbl
  ^ Printf.sprintf
      "\nNominal worst path with routed wire lengths: %.3f ns vs %.3f ns \
       estimated (%+.1f%%).\n"
      r.Sta.worst (Flow.clock t)
      (100.0 *. (r.Sta.worst -. Flow.clock t) /. Flow.clock t)

let power_integrity ctx =
  let t = ctx in
  let high =
    (Flow.netlist t).Netlist.lib.Pvtol_stdcell.Cell.process
      .Pvtol_stdcell.Process.vdd_high
  in
  (* Per-cell current draw at the worst-case (all-raised) configuration,
     on the unmodified netlist so every strategy sees the same load. *)
  let report =
    Power.analyze
      ~vdd:(fun _ -> high)
      ~activity:(Flow.activity t)
      ~wire_length:(Array.get (Placement.wire_lengths (Flow.placement t)))
      ~clock_ns:(Flow.clock t) (Flow.netlist t)
  in
  let current_ma cid =
    Power.total_mw report.Power.per_cell.(cid) /. high
  in
  let tbl =
    Table.create
      ~header:
        [ "High-Vdd domain (3 raised)"; "Cells"; "Rail bins"; "Pad bins";
          "Max IR drop"; "Unreachable" ]
  in
  let n_cells = Netlist.cell_count (Flow.netlist t) in
  let row name member =
    let r =
      Power_grid.analyze ~placement:(Flow.placement t) ~member ~current_ma
        ~vdd:high ()
    in
    let members = ref 0 in
    for cid = 0 to n_cells - 1 do
      if member cid then incr members
    done;
    Table.add_row tbl
      [
        name;
        Table.pcell ~decimals:0 (float_of_int !members /. float_of_int n_cells);
        string_of_int (r.Power_grid.supplied_bins + r.Power_grid.unreachable_bins);
        string_of_int r.Power_grid.pad_bins;
        Printf.sprintf "%.1f mV" r.Power_grid.max_drop_mv;
        string_of_int r.Power_grid.unreachable_bins;
      ]
  in
  List.iter
    (fun (name, v) ->
      let domains =
        Island.domains v.Flow.slicing.Slicing.partition (Flow.placement t)
      in
      row name (fun cid -> domains.(cid) <= 3))
    [ ("vertical slicing", vertical ctx); ("horizontal slicing", horizontal ctx) ];
  (match Flow.logic_grouping t with
  | Ok lg ->
    row "logic-based (units)" (fun cid -> lg.Logic_grouping.domains.(cid) <= 3)
  | Error _ -> ());
  (* A deliberately scattered sparse selection, as a bound: few cells,
     yet rails must reach almost every bin. *)
  row "scattered (synthetic)" (fun cid -> cid mod 7 = 0);
  heading "Extension — supply-network (IR-drop) feasibility per strategy"
  ^ Table.render tbl
  ^ "\n(strap-grid relaxation with pads on the core boundary.  'Rail\n\
     bins' is the grid area the high supply must cover: the scattered\n\
     selection needs rails over nearly the whole core to feed a seventh\n\
     of the cells, while slab islands cover exactly their own extent and\n\
     touch the boundary everywhere — §4.5's reason for slice shapes)\n"

let workload_sensitivity ctx =
  let t = ctx in
  let v = vertical ctx in
  let shifted = v.Flow.shifted in
  let module Workloads = Pvtol_vexsim.Workloads in
  let module Gatesim = Pvtol_power.Gatesim in
  let cycles = max 64 ((Flow.config t).Flow.gatesim_cycles / 2) in
  let tbl =
    Table.create
      ~header:
        [ "Workload"; "IPC"; "Toggle rate"; "Chip-wide (mW)"; "1 VI @ C (mW)";
          "Saving" ]
  in
  List.iter
    (fun (w : Workloads.t) ->
      assert w.Workloads.correct;
      let activity_of nl =
        let stim, _ =
          Gatesim.trace_stimulus nl ~instr_prefix:"instr" ~words:w.Workloads.trace
            ~fallback:(Gatesim.random_stimulus ~seed:((Flow.config t).Flow.mc_seed + 1))
        in
        Gatesim.run ~cycles nl stim
      in
      let act_base = activity_of (Flow.netlist t) in
      let act_shifted = activity_of shifted.Level_shifter.netlist in
      let systematic =
        Pvtol_variation.Sampler.systematic_lgates (Flow.sampler t)
          (Flow.placement t) Position.point_c
      in
      let high =
        (Flow.netlist t).Netlist.lib.Pvtol_stdcell.Cell.process
          .Pvtol_stdcell.Process.vdd_high
      in
      let chip =
        Power.total_mw
          (Power.analyze
             ~lgate_nm:(fun i -> systematic.(i))
             ~vdd:(fun _ -> high)
             ~activity:act_base
             ~wire_length:(Array.get (Placement.wire_lengths (Flow.placement t)))
             ~clock_ns:(Flow.clock t) (Flow.netlist t))
            .Power.total
      in
      let systematic_sh =
        Pvtol_variation.Sampler.systematic_lgates (Flow.sampler t)
          shifted.Level_shifter.placement Position.point_c
      in
      let vi =
        Power.total_mw
          (Power.analyze
             ~lgate_nm:(fun i -> systematic_sh.(i))
             ~vdd:(fun cid -> Level_shifter.vdd_assignment shifted ~raised:1 cid)
             ~activity:act_shifted
             ~wire_length:
               (Array.get (Placement.wire_lengths shifted.Level_shifter.placement))
             ~clock_ns:(Flow.clock t) shifted.Level_shifter.netlist)
            .Power.total
      in
      Table.add_row tbl
        [
          w.Workloads.name;
          Table.fcell ~decimals:2 (Pvtol_vexsim.Sim.ipc w.Workloads.stats);
          Table.fcell ~decimals:3 (Gatesim.mean_rate act_base);
          Table.fcell ~decimals:2 chip;
          Table.fcell ~decimals:2 vi;
          Table.pcell ~decimals:1 (1.0 -. (vi /. chip));
        ])
    (Workloads.all ());
  heading "Extension — workload sensitivity of the Fig. 5 comparison"
  ^ Table.render tbl
  ^ "\n(every workload verified against a direct reference computation;\n\
     the spread across these five unit mixes bounds how much the\n\
     paper's single-FIR methodology could move its normalized numbers —\n\
     workloads that concentrate activity outside the islands favour the\n\
     island scheme, streaming ones with idle datapaths favour neither)\n"

let postsilicon_study ctx =
  let s = Postsilicon.run ctx (vertical ctx) in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (heading "Extension — post-silicon detect-and-compensate across dies");
  Format.kasprintf (Buffer.add_string buf) "%a" Postsilicon.pp s;
  (* Scenario histogram over the population: the scenario the sensors
     detected, before the controller escalates. *)
  let hist = Array.make 4 0 in
  List.iter
    (fun (c : Postsilicon.chip) ->
      let i = min 3 c.Postsilicon.detected in
      hist.(i) <- hist.(i) + 1)
    s.Postsilicon.chips;
  Buffer.add_string buf "  dies per detected scenario: ";
  Array.iteri (fun i n -> Buffer.add_string buf (Printf.sprintf "%d VI: %d  " i n)) hist;
  Buffer.add_string buf "\n";
  Buffer.contents buf

let wafer_study ctx =
  (* A coarse grid keeps the exhibit quick; the CLI's [pvtol wafer]
     scales it up.  Same streaming engine either way. *)
  let cfg = { Wafer.default_config with Wafer.nx = 6; ny = 6; dies_per_cell = 6 } in
  let s = Wafer.sweep ctx cfg in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (heading "Extension — wafer-scale 2D yield sweep (streaming statistics)");
  Format.kasprintf (Buffer.add_string buf) "%a" Wafer.pp s;
  Buffer.add_string buf "\n";
  Buffer.add_string buf (Wafer.render_map s Wafer.Yield_uncompensated);
  Buffer.add_string buf "\n";
  Buffer.add_string buf (Wafer.render_map s Wafer.Mean_raised);
  Buffer.add_string buf
    "(the diagonal A-D study of the post-silicon exhibit is the x=y line\n\
     of these maps; off-diagonal cells are new coverage of the full 2D\n\
     systematic polynomial — every per-cell figure is accumulated with\n\
     O(1)-space Welford / P-square estimators, never per-die arrays)\n";
  Buffer.contents buf

let all ctx =
  (* Warm the Monte-Carlo stage for all four die positions as parallel
     tasks before the exhibits (fig3, scenarios, razor, ...) read it. *)
  ignore (Flow.mc_all ctx);
  String.concat "\n"
    [
      fig2_lgate_map ();
      table1_breakdown ctx;
      fig3_distributions ctx;
      scenarios_summary ctx;
      razor_sites ctx;
      fig4_islands ctx;
      table2_level_shifters ctx;
      fig5_total_power ctx;
      fig6_leakage ctx;
      energy_note ctx;
      compensation_check ctx;
      grouping_ablation ctx;
      routing_note ctx;
      clock_tree_note ctx;
      ssta_crosscheck ctx;
      alternatives_comparison ctx;
      power_integrity ctx;
      workload_sensitivity ctx;
      postsilicon_study ctx;
      wafer_study ctx;
    ]
