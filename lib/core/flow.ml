(* Stage-graph implementation of the end-to-end methodology flow.  The
   [Sg] alias must be taken before [open Pvtol_netlist], which shadows
   the sibling [Stage] (the stage-graph combinators) with the pipeline
   stage enum. *)
module Sg = Stage
module Trace = Pvtol_util.Trace
module Pool = Pvtol_util.Pool
module Metrics = Pvtol_util.Metrics
module Log = Pvtol_util.Log
open Pvtol_netlist
module Vex_core = Pvtol_vex.Vex_core
module Floorplan = Pvtol_place.Floorplan
module Placer = Pvtol_place.Placer
module Placement = Pvtol_place.Placement
module Sta = Pvtol_timing.Sta
module Sizing = Pvtol_timing.Sizing
module Sampler = Pvtol_variation.Sampler
module Position = Pvtol_variation.Position
module MC = Pvtol_ssta.Monte_carlo
module Scenario = Pvtol_ssta.Scenario
module Gatesim = Pvtol_power.Gatesim
module Power = Pvtol_power.Power
module Fir = Pvtol_vexsim.Fir

type config = {
  vex : Vex_core.config;
  place_seed : int;
  place_iterations : int;
  utilization : float;
      (** Initial row utilization.  Chosen below the paper's quoted
          ~70% so that, after area recovery *adds back* the
          level-shifter area (26-31% of the core, Table 2), the final
          utilization lands near 70% and incremental placement stays
          local. *)
  mc_samples : int;
  mc_seed : int;
  gatesim_cycles : int;
  fir_taps : int;
  fir_samples : int;
  corner_kappa : float;
}

let default_config =
  {
    vex = Vex_core.default_config;
    place_seed = 1;
    place_iterations = 48;
    utilization = 0.48;
    mc_samples = 400;
    mc_seed = 2024;
    gatesim_cycles = 512;
    fir_taps = 16;
    fir_samples = 64;
    corner_kappa = 0.35;
  }

let quick_config =
  {
    default_config with
    vex = Vex_core.small_config;
    place_iterations = 24;
    mc_samples = 120;
    gatesim_cycles = 128;
    fir_taps = 8;
    fir_samples = 16;
  }

type variant = {
  direction : Island.direction;
  slicing : Slicing.outcome;
  shifted : Level_shifter.t;
  sta_shifted : Sta.t;
  post_ls_worst : float;
  degradation : float;
  activity_shifted : Gatesim.activity;
}

type supply_config =
  | Baseline_low
  | Chip_wide_high
  | Islands of Island.direction * int

let supply_label = function
  | Baseline_low -> "low"
  | Chip_wide_high -> "high"
  | Islands (dir, raised) ->
    Printf.sprintf "islands-%s-%d" (Island.direction_name dir) raised

type t = {
  config : config;
  graph : Sg.graph;
  design_n : Vex_core.t Sg.node;
  placement0_n : Placement.t Sg.node;
  sizing_n : Sizing.report Sg.node;
  netlist_n : Netlist.t Sg.node;
  placement_n : Placement.t Sg.node;
  sta_n : Sta.t Sg.node;
  nominal_n : Sta.result Sg.node;
  clock_n : float Sg.node;
  sampler_n : Sampler.t Sg.node;
  fir_n : Fir.result Sg.node;
  activity_n : Gatesim.activity Sg.node;
  mc_k : (Position.t, MC.result) Sg.keyed;
  scenarios_n : Scenario.t list Sg.node;
  islands_k : (Island.direction, Slicing.outcome) Sg.keyed;
  variant_k : (Island.direction, variant) Sg.keyed;
  logic_grouping_n : (Logic_grouping.t, string) result Sg.node;
  power_k : (supply_config * Position.t, Power.report) Sg.keyed;
}

(* Targets for island growth, least severe first: island 1 compensates
   the single-stage scenario at C, island 2 the two-stage scenario at
   B, island 3 the full corner A. *)
let growth_targets =
  [
    { Slicing.scenario_index = 1; position = Position.point_c };
    { Slicing.scenario_index = 2; position = Position.point_b };
    { Slicing.scenario_index = 3; position = Position.point_a };
  ]

let m_prepares = Metrics.counter "flow_prepares_total"

(* All four die positions as parallel tasks; each task's own MC fan-out
   then runs serially inside its worker (the pool's nested-use guard),
   so this trades chunk-level for position-level parallelism with
   bit-identical results.  Already-memoized positions return instantly
   inside their task. *)
let mc_named mc_k =
  Pool.map (Pool.shared ())
    ~f:(fun p -> (p, Sg.get_keyed mc_k p))
    (Array.of_list Position.named)
  |> Array.to_list

let prepare ?(config = default_config) () =
  Metrics.incr m_prepares;
  Log.debug "flow: preparing stage graph (mc_samples=%d, place_seed=%d)"
    config.mc_samples config.place_seed;
  let g = Sg.create () in
  let design_n =
    Sg.node g ~name:"design" (fun () -> Vex_core.build config.vex)
  in
  let placement0_n =
    Sg.node g ~name:"placement" ~deps:[ "design" ] (fun () ->
        let design = Sg.get design_n in
        let nl0 = design.Vex_core.netlist in
        let fp =
          Floorplan.create ~utilization:config.utilization
            ~cell_area:(Netlist.area nl0) ()
        in
        Placer.place ~iterations:config.place_iterations
          ~seed:config.place_seed nl0 fp)
  in
  (* Each timing stage forces its inputs once in its own compute and
     looks wire lengths up in a per-net table: sizing leaves the
     connectivity unchanged, so the initial placement's table serves
     every netlist up to level-shifter insertion. *)
  let sizing_n =
    Sg.node g ~name:"sizing" ~deps:[ "design"; "placement" ] (fun () ->
        let design = Sg.get design_n in
        let nl0 = design.Vex_core.netlist in
        let capture = design.Vex_core.capture_stage in
        let wire = Array.get (Placement.wire_lengths (Sg.get placement0_n)) in
        let sta0 = Sta.build nl0 ~wire_length:wire ~capture in
        let r0 = Sta.analyze sta0 ~delays:(Sta.nominal_delays sta0) in
        let initial_clock =
          match Sta.stage_delay r0 Stage.Execute with
          | Some d -> d
          | None -> r0.Sta.worst
        in
        Sizing.fit ~clock:initial_clock ~frac:Sizing.balanced_fracs
          ~wire_length:wire ~capture nl0)
  in
  let netlist_n =
    Sg.node g ~name:"netlist" ~deps:[ "sizing" ] (fun () ->
        (Sg.get sizing_n).Sizing.netlist)
  in
  let placement_n =
    Sg.node g ~name:"placed" ~deps:[ "placement"; "netlist" ] (fun () ->
        { (Sg.get placement0_n) with Placement.netlist = Sg.get netlist_n })
  in
  let sta_n =
    Sg.node g ~name:"sta" ~deps:[ "netlist"; "placement"; "design" ] (fun () ->
        let wire = Array.get (Placement.wire_lengths (Sg.get placement0_n)) in
        Sta.build (Sg.get netlist_n) ~wire_length:wire
          ~capture:(Sg.get design_n).Vex_core.capture_stage)
  in
  let nominal_n =
    Sg.node g ~name:"timing" ~deps:[ "sta" ] (fun () ->
        let sta = Sg.get sta_n in
        Sta.analyze sta ~delays:(Sta.nominal_delays sta))
  in
  (* The nominal clock is set by the execute-stage critical path, which
     determines fmax (256 MHz in the paper's testbed). *)
  let clock_n =
    Sg.node g ~name:"clock" ~deps:[ "timing" ] (fun () ->
        let r = Sg.get nominal_n in
        match Sta.stage_delay r Stage.Execute with
        | Some d -> d
        | None -> r.Sta.worst)
  in
  let sampler_n = Sg.node g ~name:"sampler" (fun () -> Sampler.create ()) in
  let fir_n =
    Sg.node g ~name:"fir" (fun () ->
        Fir.run ~taps:config.fir_taps ~samples:config.fir_samples ())
  in
  let activity_n =
    Sg.node g ~name:"activity" ~deps:[ "netlist"; "fir" ] (fun () ->
        let netlist = Sg.get netlist_n in
        let stim, _ =
          Gatesim.trace_stimulus netlist ~instr_prefix:"instr"
            ~words:(Sg.get fir_n).Fir.trace
            ~fallback:(Gatesim.random_stimulus ~seed:(config.mc_seed + 1))
        in
        Gatesim.run ~cycles:config.gatesim_cycles netlist stim)
  in
  let mc_k =
    Sg.keyed g ~name:"mc"
      ~deps:(fun _ -> [ "sta"; "placed"; "sampler" ])
      ~key_label:(fun (p : Position.t) -> p.Position.label)
      (fun position ->
        MC.run
          ~config:{ MC.samples = config.mc_samples; seed = config.mc_seed }
          ~sampler:(Sg.get sampler_n) ~sta:(Sg.get sta_n)
          ~placement:(Sg.get placement_n) ~position ())
  in
  let scenarios_n =
    Sg.node g ~name:"scenarios" ~deps:[ "clock"; "mc" ] (fun () ->
        let clock = Sg.get clock_n in
        List.map (fun (_, r) -> Scenario.classify ~clock r) (mc_named mc_k))
  in
  let islands_k =
    Sg.keyed g ~name:"islands"
      ~deps:(fun _ -> [ "sta"; "placed"; "sampler"; "clock" ])
      ~key_label:Island.direction_name
      (fun direction ->
        Slicing.generate ~corner_kappa:config.corner_kappa ~direction
          ~sta:(Sg.get sta_n) ~placement:(Sg.get placement_n)
          ~sampler:(Sg.get sampler_n) ~clock:(Sg.get clock_n)
          ~targets:growth_targets ())
  in
  let variant_k =
    Sg.keyed g ~name:"shifters"
      ~deps:(fun d ->
        [ "islands[" ^ Island.direction_name d ^ "]"; "netlist"; "placed";
          "clock"; "fir" ])
      ~key_label:Island.direction_name
      (fun direction ->
        let slicing = Sg.get_keyed islands_k direction in
        let netlist = Sg.get netlist_n in
        let placement = Sg.get placement_n in
        let clock = Sg.get clock_n in
        let shifted =
          Level_shifter.insert slicing.Slicing.partition placement netlist
        in
        let wire =
          Array.get (Placement.wire_lengths shifted.Level_shifter.placement)
        in
        let capture = (Sg.get design_n).Vex_core.capture_stage in
        (* Fig. 1's final step: incremental placement (done inside the
           insertion) and timing closure — upsizing recovers the paths
           that shifter insertion and cell displacement stretched.
           Residual violation shows up as the paper's post-insertion
           performance degradation (8% vertical / 15% horizontal in
           their testbed). *)
        let closure =
          Sizing.close_timing ~frac:Sizing.balanced_fracs
            ~clock:(clock *. 1.08) ~wire_length:wire ~capture
            shifted.Level_shifter.netlist
        in
        let shifted =
          { shifted with Level_shifter.netlist = closure.Sizing.netlist }
        in
        let shifted =
          {
            shifted with
            Level_shifter.placement =
              {
                shifted.Level_shifter.placement with
                Placement.netlist = shifted.Level_shifter.netlist;
              };
          }
        in
        let sta_shifted =
          Sta.build shifted.Level_shifter.netlist ~wire_length:wire ~capture
        in
        let r =
          Sta.analyze sta_shifted ~delays:(Sta.nominal_delays sta_shifted)
        in
        let stim, _ =
          Gatesim.trace_stimulus shifted.Level_shifter.netlist
            ~instr_prefix:"instr" ~words:(Sg.get fir_n).Fir.trace
            ~fallback:(Gatesim.random_stimulus ~seed:(config.mc_seed + 1))
        in
        let activity_shifted =
          Gatesim.run ~cycles:config.gatesim_cycles
            shifted.Level_shifter.netlist stim
        in
        {
          direction;
          slicing;
          shifted;
          sta_shifted;
          post_ls_worst = r.Sta.worst;
          degradation = (r.Sta.worst -. clock) /. clock;
          activity_shifted;
        })
  in
  let logic_grouping_n =
    Sg.node g ~name:"logic_grouping"
      ~deps:[ "sta"; "placed"; "sampler"; "clock" ] (fun () ->
        try
          Ok
            (Logic_grouping.generate ~corner_kappa:config.corner_kappa
               ~sta:(Sg.get sta_n) ~placement:(Sg.get placement_n)
               ~sampler:(Sg.get sampler_n) ~clock:(Sg.get clock_n)
               ~targets:growth_targets ())
        with Logic_grouping.Infeasible m -> Error m)
  in
  let power_k =
    Sg.keyed g ~name:"power"
      ~deps:(fun (cfg, _) ->
        match cfg with
        | Baseline_low | Chip_wide_high ->
          [ "netlist"; "placed"; "sampler"; "activity"; "clock" ]
        | Islands (dir, _) ->
          [ "shifters[" ^ Island.direction_name dir ^ "]"; "sampler"; "clock" ])
      ~key_label:(fun (cfg, (pos : Position.t)) ->
        supply_label cfg ^ "@" ^ pos.Position.label)
      (fun (cfg, position) ->
        let netlist = Sg.get netlist_n in
        let clock = Sg.get clock_n in
        let sampler = Sg.get sampler_n in
        let process = netlist.Netlist.lib.Pvtol_stdcell.Cell.process in
        let low = process.Pvtol_stdcell.Process.vdd_low in
        let high = process.Pvtol_stdcell.Process.vdd_high in
        match cfg with
        | Baseline_low | Chip_wide_high ->
          let v = match cfg with Baseline_low -> low | _ -> high in
          let placement = Sg.get placement_n in
          let systematic =
            Sampler.systematic_lgates sampler placement position
          in
          Power.analyze
            ~lgate_nm:(fun i -> systematic.(i))
            ~vdd:(fun _ -> v)
            ~activity:(Sg.get activity_n)
            ~wire_length:(Array.get (Placement.wire_lengths placement))
            ~clock_ns:clock netlist
        | Islands (dir, raised) ->
          let v = Sg.get_keyed variant_k dir in
          let shifted = v.shifted in
          let systematic =
            Sampler.systematic_lgates sampler
              shifted.Level_shifter.placement position
          in
          Power.analyze
            ~lgate_nm:(fun i -> systematic.(i))
            ~vdd:(fun cid -> Level_shifter.vdd_assignment shifted ~raised cid)
            ~activity:v.activity_shifted
            ~wire_length:
              (Array.get (Placement.wire_lengths shifted.Level_shifter.placement))
            ~clock_ns:clock shifted.Level_shifter.netlist)
  in
  {
    config;
    graph = g;
    design_n;
    placement0_n;
    sizing_n;
    netlist_n;
    placement_n;
    sta_n;
    nominal_n;
    clock_n;
    sampler_n;
    fir_n;
    activity_n;
    mc_k;
    scenarios_n;
    islands_k;
    variant_k;
    logic_grouping_n;
    power_k;
  }

(* ------------------------------------------------------------------ *)
(* Accessors: force the stage (memoized) and return its value.         *)

let config t = t.config
let graph t = t.graph
let trace t = Sg.trace t.graph
let design t = Sg.get t.design_n
let netlist t = Sg.get t.netlist_n
let placement t = Sg.get t.placement_n
let sta t = Sg.get t.sta_n
let nominal t = Sg.get t.nominal_n
let clock t = Sg.get t.clock_n
let sizing t = Sg.get t.sizing_n
let sampler t = Sg.get t.sampler_n
let fir t = Sg.get t.fir_n
let activity t = Sg.get t.activity_n
let mc t position = Sg.get_keyed t.mc_k position

let mc_all t = mc_named t.mc_k

let scenarios t = Sg.get t.scenarios_n
let islands t direction = Sg.get_keyed t.islands_k direction
let variant t direction = Sg.get_keyed t.variant_k direction
let logic_grouping t = Sg.get t.logic_grouping_n

let power_at t ?(position = Position.point_a) cfg =
  Sg.get_keyed t.power_k (cfg, position)

(* ------------------------------------------------------------------ *)
(* Keyed families declared by the modules above Flow                    *)

(* One family per graph, registered on first use.  The progress slot is
   read by the compute closure at compute time, so a callback passed to
   a force that hits the memo never fires. *)
let keyed_family ~name ~direction ~key_label compute =
  let mu = Mutex.create () in
  let per_graph = ref [] in
  fun t progress key ->
    Mutex.lock mu;
    let family, slot =
      match List.assq_opt t.graph !per_graph with
      | Some f -> f
      | None ->
        let slot = ref None in
        let family =
          Sg.keyed t.graph ~name
            ~deps:(fun k ->
              [ "sta"; "placed"; "sampler"; "clock";
                "shifters[" ^ Island.direction_name (direction k) ^ "]" ])
            ~key_label
            (fun k -> compute !slot t (variant t (direction k)) k)
        in
        per_graph := (t.graph, (family, slot)) :: !per_graph;
        (family, slot)
    in
    Mutex.unlock mu;
    match progress with
    | None -> Sg.get_keyed family key
    | Some _ ->
      slot := progress;
      Fun.protect
        ~finally:(fun () -> slot := None)
        (fun () -> Sg.get_keyed family key)
