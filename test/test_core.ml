(* Tests for the paper's core contribution: islands, greedy slicing,
   level-shifter insertion, and the end-to-end flow. *)

module Flow = Pvtol_core.Flow
module Island = Pvtol_core.Island
module Slicing = Pvtol_core.Slicing
module Level_shifter = Pvtol_core.Level_shifter
module Experiments = Pvtol_core.Experiments
module Sg = Pvtol_core.Stage
module Trace = Pvtol_util.Trace
module Power = Pvtol_power.Power
module Sta = Pvtol_timing.Sta
module Sizing = Pvtol_timing.Sizing
module Position = Pvtol_variation.Position
module Sampler = Pvtol_variation.Sampler
module Geom = Pvtol_util.Geom
module Netlist = Pvtol_netlist.Netlist
module Stage = Pvtol_netlist.Stage
module Density = Pvtol_place.Density

(* One quick flow + vertical variant shared by the whole suite. *)
let env =
  lazy
    (let t = Flow.prepare ~config:Flow.quick_config () in
     (t, Flow.variant t Island.Vertical))

(* --- island geometry --- *)

let test_slice_region_sides () =
  let core = Geom.rect ~llx:0.0 ~lly:0.0 ~urx:100.0 ~ury:50.0 in
  let r = Island.slice_region ~core Island.Vertical Density.Left ~cut:30.0 in
  Alcotest.(check bool) "left slab" true (r.Geom.llx = 0.0 && r.Geom.urx = 30.0);
  let r = Island.slice_region ~core Island.Vertical Density.Right ~cut:70.0 in
  Alcotest.(check bool) "right slab" true (r.Geom.llx = 70.0 && r.Geom.urx = 100.0);
  let r = Island.slice_region ~core Island.Horizontal Density.Top ~cut:20.0 in
  Alcotest.(check bool) "top slab" true (r.Geom.lly = 20.0 && r.Geom.ury = 50.0);
  try
    ignore (Island.slice_region ~core Island.Vertical Density.Top ~cut:20.0);
    Alcotest.fail "incompatible side should be rejected"
  with Invalid_argument _ -> ()

let test_islands_nested () =
  let _, v = Lazy.force env in
  let part = v.Flow.slicing.Slicing.partition in
  let islands = part.Island.islands in
  for k = 0 to Array.length islands - 2 do
    Alcotest.(check bool)
      (Printf.sprintf "VI%d inside VI%d" (k + 1) (k + 2))
      true
      (Geom.subsumes islands.(k + 1).Island.region islands.(k).Island.region);
    Alcotest.(check bool) "cell sets nested too" true
      (Array.length islands.(k).Island.cells
      <= Array.length islands.(k + 1).Island.cells)
  done;
  Alcotest.(check int) "three islands" 3 (Array.length islands)

let test_domains_consistent () =
  let t, v = Lazy.force env in
  let part = v.Flow.slicing.Slicing.partition in
  let placement = Flow.placement t in
  let domains = Island.domains part placement in
  Array.iteri
    (fun cid d ->
      let pt =
        Geom.point placement.Pvtol_place.Placement.xs.(cid)
          placement.Pvtol_place.Placement.ys.(cid)
      in
      (* Domain d means: inside islands d, d+1, ... and outside d-1. *)
      Alcotest.(check int) "domain matches geometry" (Island.domain_of_point part pt) d)
    domains;
  (* Island-1 cells are exactly the domain-1 cells. *)
  let in_island_1 = part.Island.islands.(0).Island.cells in
  Array.iter
    (fun cid -> Alcotest.(check int) "island-1 cell domain" 1 domains.(cid))
    in_island_1

let test_vdd_assignment_monotone () =
  let t, v = Lazy.force env in
  let part = v.Flow.slicing.Slicing.partition in
  let domains = Island.domains part (Flow.placement t) in
  let lib = (Flow.netlist t).Netlist.lib in
  let n = Netlist.cell_count (Flow.netlist t) in
  for raised = 0 to 2 do
    let count v_of =
      let c = ref 0 in
      for cid = 0 to n - 1 do
        if v_of cid > 1.1 then incr c
      done;
      !c
    in
    let now = count (Island.vdd_assignment ~domains ~raised ~lib) in
    let next = count (Island.vdd_assignment ~domains ~raised:(raised + 1) ~lib) in
    Alcotest.(check bool) "raising more islands raises more cells" true (next >= now)
  done;
  (* raised = 0 means everything low. *)
  let all_low =
    Array.for_all
      (fun cid -> Island.vdd_assignment ~domains ~raised:0 ~lib cid < 1.1)
      (Array.init n (fun i -> i))
  in
  Alcotest.(check bool) "raised 0 all low" true all_low

(* --- slicing --- *)

(* The corner check's per-cell oracle: one cell's delay scale at the
   compensation corner (systematic Lgate plus 0.35 random sigmas)
   through the scalar model, under a per-cell supply. *)
let corner_scale ~sampler ~systematic ~vdd cid =
  let lgate_nm = systematic.(cid) +. (0.35 *. sampler.Sampler.sigma_rnd_nm) in
  Pvtol_stdcell.Process.delay_scale sampler.Sampler.process ~vdd:(vdd cid)
    ~lgate_nm

let test_slicing_compensates_at_corner () =
  let t, v = Lazy.force env in
  let part = v.Flow.slicing.Slicing.partition in
  let domains = Island.domains part (Flow.placement t) in
  let lib = (Flow.netlist t).Netlist.lib in
  (* Re-run the deterministic corner check the generator used for the
     most severe scenario: all stages must meet the clock. *)
  let systematic =
    Sampler.systematic_lgates (Flow.sampler t) (Flow.placement t)
      Position.point_a
  in
  let vdd = Island.vdd_assignment ~domains ~raised:3 ~lib in
  let base = Sta.nominal_delays (Flow.sta t) in
  let delays =
    Array.mapi
      (fun i b ->
        b
        *. corner_scale ~sampler:(Flow.sampler t) ~systematic ~vdd i)
      base
  in
  let r = Sta.analyze (Flow.sta t) ~delays in
  List.iter
    (fun s ->
      match Sta.stage_delay r s with
      | Some d ->
        Alcotest.(check bool)
          (Printf.sprintf "%s compensated at corner A" (Stage.name s))
          true
          (d <= Flow.clock t +. 1e-9)
      | None -> ())
    [ Stage.Decode; Stage.Execute; Stage.Writeback ]

let test_slicing_infeasible () =
  let t, _ = Lazy.force env in
  (* An impossible clock cannot be compensated even chip-wide. *)
  try
    ignore
      (Slicing.generate ~direction:Island.Vertical ~sta:(Flow.sta t)
         ~placement:(Flow.placement t) ~sampler:(Flow.sampler t)
         ~clock:(Flow.clock t /. 2.0)
         ~targets:[ { Slicing.scenario_index = 1; position = Position.point_a } ]);
    Alcotest.fail "expected Infeasible"
  with Slicing.Infeasible _ -> ()

(* The corner check's per-target delay vectors and reused workspace
   against the per-check path they replaced: [corner_scale] under a
   per-cell supply closure, then a fresh [Sta.analyze].  The vectors
   the check picks from — [Process.scale_into] over the nominal delays
   at each supply — must equal the oracle's delays bit for bit.  The
   check only returns a verdict, so it is asked at the two clocks that
   straddle the oracle's worst stage delay: it must pass at the
   smallest clock whose +1e-9 slack covers that delay and fail one
   float below. *)
let test_corner_check_oracle () =
  let t, _ = Lazy.force env in
  let sta = Flow.sta t and sampler = Flow.sampler t in
  let process = (Flow.netlist t).Netlist.lib.Pvtol_stdcell.Cell.process in
  let base = Sta.nominal_delays sta in
  let n = Array.length base in
  let st = Random.State.make [| 28 |] in
  let ws = Sta.workspace sta in
  List.iter
    (fun position ->
      let systematic =
        Sampler.systematic_lgates sampler (Flow.placement t) position
      in
      let at_clock clock =
        Slicing.corner_check ~sta ~sampler ~clock ~systematic
      in
      let at_flow_clock = at_clock (Flow.clock t) in
      for _ = 1 to 4 do
        let p = Random.State.float st 1.0 in
        let set = Array.init n (fun _ -> Random.State.float st 1.0 < p) in
        let raised cid = set.(cid) in
        let vdd cid =
          if raised cid then process.Pvtol_stdcell.Process.vdd_high
          else process.Pvtol_stdcell.Process.vdd_low
        in
        let delays =
          Array.init n (fun i ->
              base.(i) *. corner_scale ~sampler ~systematic ~vdd i)
        in
        let r = Sta.analyze sta ~delays in
        let table v =
          let out = Array.make n 0.0 in
          Pvtol_stdcell.Process.scale_into sampler.Sampler.process ~vdd:v
            ~base
            ~lgates:
              (Array.map
                 (fun lg -> lg +. (0.35 *. sampler.Sampler.sigma_rnd_nm))
                 systematic)
            ~out;
          out
        in
        let low = table process.Pvtol_stdcell.Process.vdd_low in
        let high = table process.Pvtol_stdcell.Process.vdd_high in
        let tabled =
          Array.init n (fun i -> if raised i then high.(i) else low.(i))
        in
        Alcotest.(check string) "table delays bitwise" (Marshal.to_string delays [])
          (Marshal.to_string tabled []);
        Sta.analyze_into sta ws ~delays:tabled;
        List.iter
          (fun s ->
            Alcotest.(check string)
              (Stage.name s ^ " delay bitwise")
              (Marshal.to_string (Sta.stage_delay r s) [])
              (Marshal.to_string (Sta.ws_stage_delay ws s 0) []))
          Stage.all;
        let delays_of =
          List.filter_map (Sta.stage_delay r) Pvtol_ssta.Scenario.analyzed_stages
        in
        let worst = List.fold_left Float.max neg_infinity delays_of in
        Alcotest.(check bool) "verdict at the flow clock"
          (worst <= Flow.clock t +. 1e-9)
          (at_flow_clock ~raised);
        let c = ref (worst -. 1e-9) in
        while !c +. 1e-9 < worst do
          c := Float.succ !c
        done;
        while Float.pred !c +. 1e-9 >= worst do
          c := Float.pred !c
        done;
        Alcotest.(check bool) "passes at the worst stage delay" true
          (at_clock !c ~raised);
        Alcotest.(check bool) "fails one float below" false
          (at_clock (Float.pred !c) ~raised)
      done)
    [ Position.point_a; Position.point_d ]

(* The analytic SSTA with its per-cell scales taken one cell at a time
   through the scalar model, as it did before they came from two
   [Process.scale_into] calls: the oracle [Analytic.analyze] must match
   bit for bit. *)
let analytic_oracle ~sta ~sampler ~systematic =
  let module An = Pvtol_ssta.Analytic in
  let nl = Sta.netlist sta in
  let lib = nl.Netlist.lib in
  let v = lib.Pvtol_stdcell.Cell.process.Pvtol_stdcell.Process.vdd_low in
  let scale lgate_nm =
    Pvtol_stdcell.Process.delay_scale sampler.Sampler.process ~vdd:v ~lgate_nm
  in
  let base = Sta.nominal_delays sta in
  let delay =
    Array.mapi
      (fun i b ->
        let s0 = scale systematic.(i) in
        let s1 = scale (systematic.(i) +. sampler.Sampler.sigma_rnd_nm) in
        let sigma = b *. Float.abs (s1 -. s0) in
        { An.mean = b *. s0; var = sigma *. sigma })
      base
  in
  let zero = { An.mean = 0.0; var = 0.0 } in
  let shift g dt = { g with An.mean = g.An.mean +. dt } in
  let arrival = Array.make (Netlist.net_count nl) zero in
  Array.iter
    (fun cid -> arrival.(nl.Netlist.cells.(cid).Netlist.fanout) <- delay.(cid))
    (Sta.flop_ids sta);
  Array.iter
    (fun cid ->
      let c = nl.Netlist.cells.(cid) in
      let acc = ref None in
      Array.iteri
        (fun pin nid ->
          let a = shift arrival.(nid) (Sta.pin_wire_delay sta cid pin) in
          acc := Some (match !acc with None -> a | Some g -> An.clark_max g a))
        c.Netlist.fanins;
      let acc = Option.value !acc ~default:zero in
      arrival.(c.Netlist.fanout) <-
        { An.mean = acc.An.mean +. delay.(cid).An.mean;
          var = acc.An.var +. delay.(cid).An.var })
    (Sta.comb_order sta);
  let per_stage = Hashtbl.create 8 and worst = ref None in
  Array.iter
    (fun cid ->
      let d_pin = nl.Netlist.cells.(cid).Netlist.fanins.(0) in
      let ep =
        shift arrival.(d_pin)
          (Sta.pin_wire_delay sta cid 0 +. lib.Pvtol_stdcell.Cell.setup)
      in
      let join = function None -> ep | Some g -> An.clark_max g ep in
      worst := Some (join !worst);
      Option.iter
        (fun stage ->
          Hashtbl.replace per_stage stage
            (join (Hashtbl.find_opt per_stage stage)))
        (Sta.capture_stage_of sta cid))
    (Sta.flop_ids sta);
  {
    An.stage_delay =
      List.filter_map
        (fun s -> Option.map (fun g -> (s, g)) (Hashtbl.find_opt per_stage s))
        Stage.all;
    worst = Option.get !worst;
  }

let test_analytic_oracle () =
  let t, _ = Lazy.force env in
  let sta = Flow.sta t and sampler = Flow.sampler t in
  List.iter
    (fun position ->
      let systematic =
        Sampler.systematic_lgates sampler (Flow.placement t) position
      in
      Alcotest.(check string)
        (position.Position.label ^ " bitwise")
        (Marshal.to_string (analytic_oracle ~sta ~sampler ~systematic) [])
        (Marshal.to_string
           (Pvtol_ssta.Analytic.analyze ~sta ~sampler ~systematic)
           []))
    Position.[ point_a; point_b; point_c; point_d ]

(* ECO placement of each slicing's shifters against the list oracle:
   the same old placement, shifted netlist and targets — each shifter's
   served sink nearest its driver among those in the sinks' earliest
   domain, as [Level_shifter.insert] picks it. *)
let check_eco_oracle t direction =
  let slicing = Flow.islands t direction in
  let placement = Flow.placement t in
  let partition = slicing.Slicing.partition in
  let shifted = Level_shifter.insert partition placement (Flow.netlist t) in
  let nl = shifted.Level_shifter.netlist in
  let domains = Island.domains partition placement in
  let at cid = Geom.point placement.Pvtol_place.Placement.xs.(cid)
      placement.Pvtol_place.Placement.ys.(cid) in
  let desired cid =
    let c = nl.Netlist.cells.(cid) in
    let driver =
      match nl.Netlist.nets.(c.Netlist.fanins.(0)).Netlist.driver with
      | Some d -> at d
      | None -> Geom.point 0.0 0.0
    in
    let sinks = Array.to_list nl.Netlist.nets.(c.Netlist.fanout).Netlist.sinks in
    let home =
      List.fold_left (fun m (s, _) -> min m domains.(s)) max_int sinks
    in
    let pick, _ =
      List.fold_left
        (fun ((_, best) as acc) (s, _) ->
          let d = Geom.dist driver (at s) in
          if domains.(s) = home && d < best then (s, d) else acc)
        (-1, infinity) sinks
    in
    at pick
  in
  let q, stats = Eco_oracle.insert placement nl ~desired in
  let name = Island.direction_name direction in
  Alcotest.(check bool) (name ^ ": shifters inserted") true
    (shifted.Level_shifter.count > 0);
  Alcotest.(check string)
    (name ^ ": placement and stats Marshal-equal")
    (Marshal.to_string (q.Pvtol_place.Placement.xs, q.Pvtol_place.Placement.ys, stats) [])
    (Marshal.to_string
       ( shifted.Level_shifter.placement.Pvtol_place.Placement.xs,
         shifted.Level_shifter.placement.Pvtol_place.Placement.ys,
         shifted.Level_shifter.displacement )
       [])

let test_eco_oracle_quick () =
  let t, _ = Lazy.force env in
  List.iter (check_eco_oracle t)
    [ Island.Vertical; Island.Horizontal; Island.Quadrant ]

let test_eco_oracle_full () =
  let t = Flow.prepare () in
  List.iter (check_eco_oracle t) [ Island.Vertical; Island.Horizontal ]

(* --- level shifters --- *)

let test_ls_netlist_valid () =
  let _, v = Lazy.force env in
  match Netlist.check v.Flow.shifted.Level_shifter.netlist with
  | Ok () -> ()
  | Error es -> Alcotest.failf "shifted netlist invalid: %s" (List.hd es)

let test_ls_covers_all_crossings () =
  let _, v = Lazy.force env in
  let shifted = v.Flow.shifted in
  (* After insertion there must be no remaining low->high crossing whose
     driver is not itself a level shifter. *)
  let nl = shifted.Level_shifter.netlist in
  let domains = shifted.Level_shifter.domains in
  let violations = ref 0 in
  Array.iter
    (fun (net : Netlist.net) ->
      match net.Netlist.driver with
      | None -> ()
      | Some d ->
        let is_ls =
          nl.Netlist.cells.(d).Netlist.cell.Pvtol_stdcell.Cell.kind
          = Pvtol_stdcell.Kind.Ls
        in
        if not is_ls then
          Array.iter
            (fun (cid, _) ->
              (* A sink that is itself a level shifter is the inserted
                 boundary element, not a violation. *)
              let sink_is_ls =
                nl.Netlist.cells.(cid).Netlist.cell.Pvtol_stdcell.Cell.kind
                = Pvtol_stdcell.Kind.Ls
              in
              if (not sink_is_ls) && domains.(cid) < domains.(d) then
                incr violations)
            net.Netlist.sinks)
    nl.Netlist.nets;
  Alcotest.(check int) "no unshifted crossings remain" 0 !violations

let test_ls_count_consistent () =
  let t, v = Lazy.force env in
  let shifted = v.Flow.shifted in
  let expected =
    Level_shifter.count_crossings v.Flow.slicing.Slicing.partition
      (Flow.placement t) (Flow.netlist t)
  in
  Alcotest.(check int) "count matches analysis" expected
    shifted.Level_shifter.count;
  Alcotest.(check int) "ids appended at the end"
    (Netlist.cell_count (Flow.netlist t))
    shifted.Level_shifter.first_ls;
  Alcotest.(check int) "netlist grew by count"
    (Netlist.cell_count (Flow.netlist t) + shifted.Level_shifter.count)
    (Netlist.cell_count shifted.Level_shifter.netlist)

let test_ls_area_positive () =
  let _, v = Lazy.force env in
  Alcotest.(check bool) "ls area fraction sane" true
    (v.Flow.shifted.Level_shifter.ls_area_frac > 0.0
    && v.Flow.shifted.Level_shifter.ls_area_frac < 1.0)

(* --- flow & power --- *)

let test_flow_scenarios_ladder () =
  let t, _ = Lazy.force env in
  let indexes =
    List.map (fun (sc : Pvtol_ssta.Scenario.t) -> sc.Pvtol_ssta.Scenario.index)
      (Flow.scenarios t)
  in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b && non_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "ladder relaxes along diagonal" true (non_increasing indexes);
  Alcotest.(check bool) "something violates at A" true (List.hd indexes > 0)

let test_power_orderings () =
  let t, _ = Lazy.force env in
  let total cfg pos = Power.total_mw (Flow.power_at t ~position:pos cfg).Power.total in
  let low = total Flow.Baseline_low Position.point_a in
  let high = total Flow.Chip_wide_high Position.point_a in
  Alcotest.(check bool) "chip-wide high > baseline" true (high > low);
  (* More islands raised costs more power at the same position. *)
  let p1 = total (Flow.Islands (Island.Vertical, 1)) Position.point_a in
  let p2 = total (Flow.Islands (Island.Vertical, 2)) Position.point_a in
  let p3 = total (Flow.Islands (Island.Vertical, 3)) Position.point_a in
  Alcotest.(check bool) "monotone in raised islands" true (p1 <= p2 && p2 <= p3)

let test_vdd_assignment_via_shifted () =
  let _, v = Lazy.force env in
  let shifted = v.Flow.shifted in
  let n = Netlist.cell_count shifted.Level_shifter.netlist in
  (* With everything raised, every cell inside VI3 runs high. *)
  let domains = shifted.Level_shifter.domains in
  for cid = 0 to n - 1 do
    let vdd = Level_shifter.vdd_assignment shifted ~raised:3 cid in
    if domains.(cid) <= 3 then
      Alcotest.(check bool) "inside raised" true (vdd > 1.1)
    else Alcotest.(check bool) "outside low" true (vdd < 1.1)
  done

let test_degradation_bounded () =
  let _, v = Lazy.force env in
  Alcotest.(check bool) "post-LS degradation within 20%" true
    (v.Flow.degradation < 0.20)

(* --- stage graph: every stage at most once per handle --- *)

(* An exhibit's renderer, looked up in the registry by name. *)
let exhibit name =
  match List.find_opt (fun (n, _, _) -> n = name) Experiments.exhibits with
  | Some (_, _, render) -> render
  | None -> Alcotest.failf "no exhibit %S" name

let test_stage_fires_once () =
  let t, _ = Lazy.force env in
  (* The shared env has already rendered nothing; force a spread of
     exhibits that used to recompute work, then check the trace. *)
  ignore (exhibit "table1" t);
  ignore (exhibit "scenarios" t);
  ignore (exhibit "fig5" t);
  ignore (exhibit "fig6" t);
  let dups = Trace.duplicates (Flow.trace t) in
  Alcotest.(check (list string)) "no stage computed twice" [] dups;
  (* Core stages are all present (they were needed by the exhibits). *)
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " appears in trace")
        true
        (Trace.find (Flow.trace t) name <> None))
    [ "design"; "placement"; "sizing"; "sta"; "timing"; "ladder" ]

(* The CLI runs each command under a span named by the command, and
   [Experiments.all] each exhibit under a span named by its registry
   key: a stage of the same name would put the name in a trace twice,
   and [Trace.duplicates] would no longer mean "a stage ran twice". *)
let test_stage_names_not_commands () =
  let t, _ = Lazy.force env in
  ignore (Flow.scenarios t);
  let commands =
    [ "all"; "summary"; "dump"; "wafer"; "compare" ]
    @ List.map (fun (n, _, _) -> n) Experiments.exhibits
  in
  let clashes =
    List.filter_map
      (fun s -> if List.mem s.Trace.name commands then Some s.Trace.name else None)
      (Trace.spans (Flow.trace t))
  in
  Alcotest.(check (list string)) "no stage named like a command" [] clashes

(* A span's deps are the stages its compute forced: the shifter stage
   reads the design's capture map, so it lists [design] too. *)
let test_shifters_deps () =
  let t, _ = Lazy.force env in
  match Trace.find (Flow.trace t) "shifters[vertical]" with
  | None -> Alcotest.fail "shifters[vertical] span missing"
  | Some s ->
    List.iter
      (fun dep ->
        Alcotest.(check bool) ("lists " ^ dep) true (List.mem dep s.Trace.deps))
      [ "islands[vertical]"; "netlist"; "placed"; "clock"; "design" ]

let test_no_recompute_downstream () =
  let t, _ = Lazy.force env in
  (* After a full pass over the usual exhibits, requesting a downstream
     artifact again must recompute zero stages. *)
  ignore (exhibit "fig5" t);
  ignore (Flow.scenarios t);
  let before = List.length (Trace.spans (Flow.trace t)) in
  ignore (exhibit "fig6" t);
  ignore (exhibit "energy" t);
  ignore (Flow.mc t Position.point_a);
  ignore (Flow.nominal t);
  let after = List.length (Trace.spans (Flow.trace t)) in
  Alcotest.(check int) "zero stages recomputed" before after

let test_mc_positions_computed_once () =
  (* fig3 reads position A alone, so it pays for one position; the
     scenarios that follow fuse B-D into one run and reuse A's memo:
     4 x mc_samples samples over both, in two draws, each position
     under its own key. *)
  let module Metrics = Pvtol_util.Metrics in
  let t = Flow.prepare ~config:Flow.quick_config () in
  let samples = Metrics.counter "mc_samples_total"
  and gaussians = Metrics.counter "mc_gaussians_total" in
  ignore (Flow.sta t);
  let per_draw =
    (Flow.config t).Flow.mc_samples * Netlist.cell_count (Flow.netlist t)
  in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) @@ fun () ->
  let s0 = Metrics.counter_value samples and g0 = Metrics.counter_value gaussians in
  ignore (exhibit "fig3" t);
  Alcotest.(check int) "fig3: one position's samples"
    (Flow.config t).Flow.mc_samples
    (Metrics.counter_value samples - s0);
  Alcotest.(check int) "fig3: one draw" per_draw (Metrics.counter_value gaussians - g0);
  ignore (Flow.scenarios t);
  ignore (Flow.mc_all t);
  Alcotest.(check int) "fig3 then scenarios: 4 x mc_samples"
    (4 * (Flow.config t).Flow.mc_samples)
    (Metrics.counter_value samples - s0);
  Alcotest.(check int) "two draws" (2 * per_draw) (Metrics.counter_value gaussians - g0);
  let trace = Flow.trace t in
  Alcotest.(check (list int)) "mc spans" [ 1; 1 ]
    [ Trace.count trace "mc[A]"; Trace.count trace "mc[B,C,D]" ]

(* --- sizing on one timing graph --- *)

let test_sizing_builds_one_graph () =
  let module Metrics = Pvtol_util.Metrics in
  let builds = Metrics.counter "sta_builds_total" in
  let t = Flow.prepare ~config:Flow.quick_config () in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) @@ fun () ->
  let b0 = Metrics.counter_value builds in
  let sized = Flow.sizing t in
  let sta = Flow.sta t in
  Alcotest.(check int) "one Sta.build for sizing and sta" 1
    (Metrics.counter_value builds - b0);
  Alcotest.(check bool) "sta is the sizing graph" true (sta == sized.Sizing.sta)

(* The sized quick design, pinned: re-timing one graph across the
   sizing passes must produce the netlist a fresh graph per pass did. *)
let test_sizing_pinned () =
  let t, _ = Lazy.force env in
  let r = Flow.sizing t in
  let digest =
    Digest.to_hex (Digest.string (Marshal.to_string (Sta.netlist r.Sizing.sta) []))
  in
  Alcotest.(check string) "sized netlist digest" "2016f9aa5249c2530b60bcff91d0c7e6"
    digest;
  Alcotest.(check int) "rounds" 23 r.Sizing.rounds;
  Alcotest.(check int) "drive changes" 7271 r.Sizing.downsized

(* Sizing against the oracle round driver (a fresh netlist and graph
   per round): the sized netlist Marshal-equal, same rounds and drive
   changes. *)
let check_sizing_oracle label (r : Sizing.report) (o : Sizing_oracle.report) =
  Alcotest.(check bool) (label ^ ": sized netlist Marshal-equal") true
    (Marshal.to_string (Sta.netlist r.Sizing.sta) []
    = Marshal.to_string o.Sizing_oracle.netlist []);
  Alcotest.(check int) (label ^ ": rounds") o.Sizing_oracle.rounds r.Sizing.rounds;
  Alcotest.(check int) (label ^ ": drive changes") o.Sizing_oracle.downsized
    r.Sizing.downsized

let check_fit_oracle t =
  let design = Flow.design t in
  let r = Flow.sizing t in
  let wire_length = Array.get (Pvtol_place.Placement.wire_lengths (Flow.placement t)) in
  check_sizing_oracle "fit" r
    (Sizing_oracle.fit ~wire_length ~capture:design.Pvtol_vex.Vex_core.capture_stage
       ~clock:r.Sizing.clock design.Pvtol_vex.Vex_core.netlist);
  r

let test_sizing_oracle_quick () =
  let t, _ = Lazy.force env in
  let r = check_fit_oracle t in
  Alcotest.(check (pair int int)) "quick: rounds, drive changes" (23, 7271)
    (r.Sizing.rounds, r.Sizing.downsized)

let test_sizing_oracle_full () =
  let r = check_fit_oracle (Flow.prepare ()) in
  Alcotest.(check (pair int int)) "full: rounds, drive changes" (35, 80661)
    (r.Sizing.rounds, r.Sizing.downsized)

(* The shifters stage's closure (fig4) on each slicing's shifted
   netlist, as [Flow.variant] runs it. *)
let test_closure_oracle_quick () =
  let t, _ = Lazy.force env in
  let capture = (Flow.design t).Pvtol_vex.Vex_core.capture_stage in
  let clock = Flow.clock t *. 1.08 in
  List.iter
    (fun direction ->
      let slicing = Flow.islands t direction in
      let shifted =
        Level_shifter.insert slicing.Slicing.partition (Flow.placement t) (Flow.netlist t)
      in
      let nl = shifted.Level_shifter.netlist in
      let wire_length =
        Array.get (Pvtol_place.Placement.wire_lengths shifted.Level_shifter.placement)
      in
      let r = Sizing.close_timing ~clock (Sta.build nl ~wire_length ~capture) in
      let label = Island.direction_name direction in
      check_sizing_oracle label r
        (Sizing_oracle.close_timing ~wire_length ~capture ~clock nl);
      Alcotest.(check bool) (label ^ ": flow's closure") true
        (Marshal.to_string (Sta.netlist r.Sizing.sta) []
        = Marshal.to_string (Flow.variant t direction).Flow.shifted.Level_shifter.netlist []))
    [ Island.Vertical; Island.Horizontal ]

(* --- experiments rendering --- *)

let test_experiments_render () =
  (* Every registered exhibit renders on one flow handle (the context
     IS the flow handle: everything memoized inside it). *)
  let t, _ = Lazy.force env in
  List.iter
    (fun (name, _, render) ->
      Alcotest.(check bool) (name ^ " non-empty") true
        (String.length (render t) > 80))
    Experiments.exhibits

let suite =
  ( "core",
    [
      Alcotest.test_case "slice region sides" `Quick test_slice_region_sides;
      Alcotest.test_case "islands nested" `Quick test_islands_nested;
      Alcotest.test_case "domains consistent" `Quick test_domains_consistent;
      Alcotest.test_case "vdd assignment monotone" `Quick test_vdd_assignment_monotone;
      Alcotest.test_case "slicing compensates corner" `Quick
        test_slicing_compensates_at_corner;
      Alcotest.test_case "slicing infeasible" `Quick test_slicing_infeasible;
      Alcotest.test_case "ls netlist valid" `Quick test_ls_netlist_valid;
      Alcotest.test_case "ls covers crossings" `Quick test_ls_covers_all_crossings;
      Alcotest.test_case "ls count consistent" `Quick test_ls_count_consistent;
      Alcotest.test_case "ls area positive" `Quick test_ls_area_positive;
      Alcotest.test_case "flow scenario ladder" `Quick test_flow_scenarios_ladder;
      Alcotest.test_case "power orderings" `Quick test_power_orderings;
      Alcotest.test_case "vdd via shifted design" `Quick test_vdd_assignment_via_shifted;
      Alcotest.test_case "degradation bounded" `Quick test_degradation_bounded;
      Alcotest.test_case "stage fires at most once" `Quick test_stage_fires_once;
      Alcotest.test_case "stage names are not commands" `Quick
        test_stage_names_not_commands;
      Alcotest.test_case "shifters deps list design" `Quick test_shifters_deps;
      Alcotest.test_case "no downstream recompute" `Quick test_no_recompute_downstream;
      Alcotest.test_case "mc positions computed once (fig3, scenarios)" `Quick
        test_mc_positions_computed_once;
      Alcotest.test_case "sizing builds one graph" `Quick test_sizing_builds_one_graph;
      Alcotest.test_case "sizing pinned (quick)" `Quick test_sizing_pinned;
      Alcotest.test_case "sizing = oracle rounds (quick)" `Quick test_sizing_oracle_quick;
      Alcotest.test_case "closure = oracle rounds (quick fig4)" `Quick
        test_closure_oracle_quick;
      Alcotest.test_case "experiments render" `Quick test_experiments_render;
      Alcotest.test_case "corner check = per-check oracle" `Quick
        test_corner_check_oracle;
      Alcotest.test_case "eco placement = list oracle (quick)" `Quick
        test_eco_oracle_quick;
      Alcotest.test_case "analytic = per-cell oracle (A-D)" `Quick
        test_analytic_oracle;
    ]
    @
    if Sys.getenv_opt "PVTOL_SLOW_TESTS" <> Some "1" then []
    else
      [
        Alcotest.test_case "eco placement = list oracle (full)" `Slow
          test_eco_oracle_full;
        Alcotest.test_case "sizing = oracle rounds (full)" `Slow test_sizing_oracle_full;
      ] )
