(* Tests for the gate-level activity simulator and the power engine. *)

open Pvtol_netlist
module Builder = Netlist.Builder
module Kind = Pvtol_stdcell.Kind
module Cell = Pvtol_stdcell.Cell
module Gatesim = Pvtol_power.Gatesim
module Power = Pvtol_power.Power

let lib = Cell.default_library
let stage = Stage.Execute

(* inverter chain: input -> inv -> inv -> out *)
let inv_chain () =
  let b = Builder.create lib in
  let a = Builder.input b "a" in
  let n1 = Builder.add b ~stage ~unit_name:"u" Kind.Inv [| a |] in
  let n2 = Builder.add b ~stage ~unit_name:"u" Kind.Inv [| n1 |] in
  Builder.output b n2 "out";
  Builder.freeze b

let test_gatesim_alternating_input () =
  let nl = inv_chain () in
  let act =
    Gatesim.run ~cycles:16 nl (fun ~cycle ~input_index:_ -> cycle mod 2 = 1)
  in
  (* Every cell toggles on all but possibly the first cycle. *)
  Array.iter
    (fun t -> Alcotest.(check bool) "toggles nearly every cycle" true (t >= 15))
    act.Gatesim.toggles

let test_gatesim_constant_input_settles () =
  let nl = inv_chain () in
  let const ~cycle:_ ~input_index:_ = true in
  let a8 = Gatesim.run ~cycles:8 nl const in
  let a16 = Gatesim.run ~cycles:16 nl const in
  (* After settling, no further toggles accumulate. *)
  Alcotest.(check bool) "settled" true (a8.Gatesim.toggles = a16.Gatesim.toggles)

let test_gatesim_dff_divider () =
  (* A toggle flop (q -> inv -> d) divides the clock by two. *)
  let b = Builder.create lib in
  let stub = Builder.placeholder b "d" in
  let q = Builder.add b ~stage ~unit_name:"u" Kind.Dff [| stub |] in
  let nq = Builder.add b ~stage ~unit_name:"u" Kind.Inv [| q |] in
  (match Builder.driver_of b q with
  | Some cell -> Builder.rewire b ~cell ~pin:0 nq
  | None -> assert false);
  Builder.output b q "q";
  let nl = Builder.freeze b in
  let act = Gatesim.run ~cycles:32 nl (fun ~cycle:_ ~input_index:_ -> false) in
  (* Both the flop and the inverter toggle every cycle. *)
  Array.iter
    (fun t -> Alcotest.(check bool) "divider toggles" true (t >= 31))
    act.Gatesim.toggles

let test_gatesim_deterministic_stimulus () =
  let nl = inv_chain () in
  let a = Gatesim.run ~cycles:32 nl (Gatesim.random_stimulus ~seed:7) in
  let b = Gatesim.run ~cycles:32 nl (Gatesim.random_stimulus ~seed:7) in
  Alcotest.(check bool) "same seed same toggles" true
    (a.Gatesim.toggles = b.Gatesim.toggles)

let small =
  lazy
    (let v = Pvtol_vex.Vex_core.build Pvtol_vex.Vex_core.small_config in
     let nl = v.Pvtol_vex.Vex_core.netlist in
     let fp = Pvtol_place.Floorplan.create ~cell_area:(Netlist.area nl) () in
     let p = Pvtol_place.Placer.place nl fp in
     let act = Gatesim.run ~cycles:64 nl (Gatesim.random_stimulus ~seed:3) in
     (nl, p, act))

let test_trace_stimulus_mapping () =
  let nl, _, _ = Lazy.force small in
  let fir = Pvtol_vexsim.Fir.run ~taps:4 ~samples:8 () in
  let stim =
    Gatesim.trace_stimulus nl ~words:fir.Pvtol_vexsim.Fir.trace
      ~fallback:(Gatesim.random_stimulus ~seed:1)
  in
  Alcotest.(check int) "trace length" fir.Pvtol_vexsim.Fir.stats.Pvtol_vexsim.Sim.cycles
    (List.length fir.Pvtol_vexsim.Fir.trace);
  (* Find the instr[0] input and check it reflects the first word's LSB. *)
  let idx = ref (-1) in
  Array.iteri
    (fun i nid ->
      if nl.Netlist.nets.(nid).Netlist.net_name = "instr[0]" then idx := i)
    nl.Netlist.inputs;
  Alcotest.(check bool) "instr[0] found" true (!idx >= 0);
  let w0 = (List.hd fir.Pvtol_vexsim.Fir.trace).(0) in
  Alcotest.(check bool) "bit mapping" true
    (stim ~cycle:0 ~input_index:!idx = (Int32.logand w0 1l = 1l))

(* A trace stimulus must never crash on an odd input name: a
   non-integer index or one past the word bundle takes the fallback. *)
let test_trace_stimulus_bad_names () =
  let b = Builder.create lib in
  let names = [ "instr[x]"; "instr[64]"; "instr[-1]"; "instr[3"; "instr[1]" ] in
  let ins = List.map (Builder.input b) names in
  List.iteri
    (fun i n ->
      let o = Builder.add b ~stage ~unit_name:"u" Kind.Inv [| n |] in
      Builder.output b o (Printf.sprintf "out%d" i))
    ins;
  let nl = Builder.freeze b in
  let fallback ~cycle:_ ~input_index:_ = true in
  (* One 2-word bundle: bits 0..63 exist, bit 1 is clear. *)
  let stim = Gatesim.trace_stimulus nl ~words:[ [| 0l; 0l |] ] ~fallback in
  List.iteri
    (fun i name ->
      Alcotest.(check bool) name (name <> "instr[1]") (stim ~cycle:0 ~input_index:i))
    names;
  let act = Gatesim.run ~cycles:4 nl stim in
  Alcotest.(check int) "simulates" 4 act.Gatesim.cycles

(* The compiled simulator against the allocating reference loop. *)
let check_against_reference label nl stim =
  let cycles = 64 in
  let act = Gatesim.run ~cycles nl stim in
  let expected = Simtool.toggles ~cycles nl stim in
  Alcotest.(check (array int)) label expected act.Gatesim.toggles;
  Alcotest.(check bool) (label ^ ": some activity") true
    (Array.exists (fun t -> t > 0) expected)

let test_gatesim_matches_reference_random () =
  let nl, _, _ = Lazy.force small in
  check_against_reference "random stimulus" nl (Gatesim.random_stimulus ~seed:11)

let test_gatesim_matches_reference_fir () =
  let nl, _, _ = Lazy.force small in
  let fir = Pvtol_vexsim.Fir.run ~taps:8 ~samples:16 () in
  let stim =
    Gatesim.trace_stimulus nl ~words:fir.Pvtol_vexsim.Fir.trace
      ~fallback:(Gatesim.random_stimulus ~seed:5)
  in
  check_against_reference "fir trace" nl stim

let test_gatesim_matches_reference_shifted () =
  let _, v = Lazy.force Test_core.env in
  let nl = v.Pvtol_core.Flow.shifted.Pvtol_core.Level_shifter.netlist in
  Alcotest.(check bool) "netlist has level shifters" true
    (Array.exists
       (fun (c : Netlist.cell) -> Kind.is_level_shifter c.Netlist.cell.Cell.kind)
       nl.Netlist.cells);
  check_against_reference "level-shifted" nl (Gatesim.random_stimulus ~seed:13)

(* --- derived activity of a level-shifted design --- *)

module Flow = Pvtol_core.Flow
module Island = Pvtol_core.Island
module Level_shifter = Pvtol_core.Level_shifter
module Workloads = Pvtol_vexsim.Workloads

(* Oracle: simulate the level-shifted netlist a second time under the
   same stimulus, as the flow did before it derived the activity. *)
let resimulated t ~cycles ~words nl =
  Gatesim.run ~cycles nl
    (Gatesim.trace_stimulus nl ~words
       ~fallback:(Gatesim.random_stimulus ~seed:((Flow.config t).Flow.mc_seed + 1)))

let check_same_activity label (expected : Gatesim.activity)
    (got : Gatesim.activity) =
  Alcotest.(check (array int)) (label ^ ": toggles") expected.Gatesim.toggles
    got.Gatesim.toggles;
  Alcotest.(check bool) (label ^ ": Marshal-equal") true
    (Marshal.to_string expected [] = Marshal.to_string got [])

(* On every slicing, the FIR activity and each workload's, extended to
   the level-shifted netlist, equal its re-simulation.  Some flop-driven
   shifter must sit one below its driver, or the final-edge rule went
   untested. *)
let check_derived_activity t =
  let base = Flow.netlist t in
  let config = Flow.config t in
  let workload_cycles = max 64 (config.Flow.gatesim_cycles / 2) in
  let stimuli =
    ("fir", config.Flow.gatesim_cycles, (Flow.fir t).Pvtol_vexsim.Fir.trace,
     Flow.activity t)
    :: List.map
         (fun (w : Workloads.t) ->
           ( w.Workloads.name, workload_cycles, w.Workloads.trace,
             Gatesim.run ~cycles:workload_cycles base
               (Flow.stimulus t w.Workloads.trace) ))
         (Workloads.all ())
  in
  let late = ref 0 in
  List.iter
    (fun dir ->
      let nl = (Flow.variant t dir).Flow.shifted.Level_shifter.netlist in
      List.iter
        (fun (name, cycles, words, act) ->
          let label = Island.direction_name dir ^ "/" ^ name in
          let derived = Gatesim.extend act ~base nl in
          check_same_activity label (resimulated t ~cycles ~words nl) derived;
          for cid = Netlist.cell_count base to Netlist.cell_count nl - 1 do
            let input = nl.Netlist.cells.(cid).Netlist.fanins.(0) in
            match nl.Netlist.nets.(input).Netlist.driver with
            | Some d when derived.Gatesim.toggles.(cid) < act.Gatesim.toggles.(d) ->
              incr late
            | Some _ | None -> ()
          done)
        stimuli)
    [ Island.Vertical; Island.Horizontal; Island.Quadrant ];
  Alcotest.(check bool) "a shifter misses its flop's final edge" true (!late > 0)

let test_derived_activity_quick () =
  let t, _ = Lazy.force Test_core.env in
  check_derived_activity t

let test_derived_activity_full () =
  check_derived_activity (Flow.prepare ~config:Flow.default_config ())

(* [inv_chain] plus one cell of [kind] appended on nets [pins]. *)
let inv_chain_plus kind pins =
  let b = Builder.create lib in
  let a = Builder.input b "a" in
  let n1 = Builder.add b ~stage ~unit_name:"u" Kind.Inv [| a |] in
  let n2 = Builder.add b ~stage ~unit_name:"u" Kind.Inv [| n1 |] in
  Builder.output b n2 "out";
  let nets = [| a; n1; n2 |] in
  ignore (Builder.add b ~stage ~unit_name:"u" kind (Array.map (Array.get nets) pins));
  Builder.freeze b

let test_extend_rejects () =
  let base = inv_chain () in
  let act = Gatesim.run ~cycles:8 base (Gatesim.random_stimulus ~seed:2) in
  let extend nl = Gatesim.extend act ~base nl in
  let buffered = extend (inv_chain_plus Kind.Buf [| 1 |]) in
  Alcotest.(check (array int)) "buffer repeats its driver"
    (Array.append act.Gatesim.toggles [| act.Gatesim.toggles.(0) |])
    buffered.Gatesim.toggles;
  List.iter
    (fun (label, nl) ->
      match extend nl with
      | _ -> Alcotest.failf "%s: accepted" label
      | exception Invalid_argument _ -> ())
    [
      ("inverter", inv_chain_plus Kind.Inv [| 1 |]);
      ("two-input gate", inv_chain_plus Kind.Nand2 [| 1; 2 |]);
      ("buffer on a primary input", inv_chain_plus Kind.Buf [| 0 |]);
      ("another netlist", Lazy.force small |> fun (nl, _, _) -> nl);
    ]

let analyze ?(vdd = fun _ -> 1.0) () =
  let nl, p, act = Lazy.force small in
  Power.analyze ~vdd ~activity:act
    ~wire_length:(fun nid -> Pvtol_place.Placement.wire_length p nid)
    ~clock_ns:3.0 nl

let test_power_positive_and_consistent () =
  let r = analyze () in
  Alcotest.(check bool) "positive total" true (Power.total_mw r.Power.total > 0.0);
  (* Stage breakdown sums to total. *)
  let stage_sum =
    List.fold_left (fun acc (_, b) -> acc +. Power.total_mw b) 0.0 r.Power.by_stage
  in
  Alcotest.(check bool) "stages sum to total" true
    (Float.abs (stage_sum -. Power.total_mw r.Power.total) < 1e-9);
  (* Per-cell sums to total too. *)
  let cell_sum = Power.sum_cells r (fun _ -> true) in
  Alcotest.(check bool) "cells sum to total" true
    (Float.abs (Power.total_mw cell_sum -. Power.total_mw r.Power.total) < 1e-9)

let test_power_vdd_monotone () =
  let low = analyze () in
  let high = analyze ~vdd:(fun _ -> 1.2) () in
  Alcotest.(check bool) "1.2V costs more" true
    (Power.total_mw high.Power.total > Power.total_mw low.Power.total);
  Alcotest.(check bool) "leakage rises too" true
    (high.Power.total.Power.leakage_mw > low.Power.total.Power.leakage_mw);
  (* Switching scales between 1x and the full quadratic factor (wire
     load is vdd-independent in the energy model only via 0.5CV^2,
     internal scales quadratically). *)
  let ratio =
    high.Power.total.Power.switching_mw /. low.Power.total.Power.switching_mw
  in
  Alcotest.(check bool) "switching ratio ~ vdd^2" true (ratio > 1.3 && ratio < 1.5)

let test_power_partial_vdd_between () =
  let nl, _, _ = Lazy.force small in
  let n = Netlist.cell_count nl in
  let low = Power.total_mw (analyze ()).Power.total in
  let high = Power.total_mw (analyze ~vdd:(fun _ -> 1.2) ()).Power.total in
  let mixed =
    Power.total_mw (analyze ~vdd:(fun cid -> if cid < n / 2 then 1.2 else 1.0) ()).Power.total
  in
  Alcotest.(check bool) "mixed supply in between" true (mixed > low && mixed < high)

let test_power_frequency_scaling () =
  let nl, p, act = Lazy.force small in
  let wire nid = Pvtol_place.Placement.wire_length p nid in
  let at clk =
    Power.analyze ~vdd:(fun _ -> 1.0) ~activity:act ~wire_length:wire
      ~clock_ns:clk nl
  in
  let f1 = at 2.0 and f2 = at 4.0 in
  (* Dynamic power halves with the frequency; leakage does not change. *)
  Alcotest.(check bool) "switching scales with f" true
    (Float.abs ((f1.Power.total.Power.switching_mw /. 2.0)
               -. f2.Power.total.Power.switching_mw) < 1e-9);
  Alcotest.(check bool) "leakage frequency independent" true
    (Float.abs (f1.Power.total.Power.leakage_mw -. f2.Power.total.Power.leakage_mw) < 1e-12)

let test_power_lgate_leakage () =
  let nl, p, act = Lazy.force small in
  let wire nid = Pvtol_place.Placement.wire_length p nid in
  let at lg =
    (Power.analyze ~lgate_nm:(fun _ -> lg) ~vdd:(fun _ -> 1.0) ~activity:act
       ~wire_length:wire ~clock_ns:3.0 nl).Power.total.Power.leakage_mw
  in
  Alcotest.(check bool) "short channel leaks more" true (at 61.0 > at 65.0)

let suite =
  ( "power",
    [
      Alcotest.test_case "gatesim alternating" `Quick test_gatesim_alternating_input;
      Alcotest.test_case "gatesim settles" `Quick test_gatesim_constant_input_settles;
      Alcotest.test_case "gatesim dff divider" `Quick test_gatesim_dff_divider;
      Alcotest.test_case "gatesim deterministic" `Quick test_gatesim_deterministic_stimulus;
      Alcotest.test_case "trace stimulus mapping" `Quick test_trace_stimulus_mapping;
      Alcotest.test_case "trace stimulus bad names" `Quick test_trace_stimulus_bad_names;
      Alcotest.test_case "gatesim = reference (random)" `Quick
        test_gatesim_matches_reference_random;
      Alcotest.test_case "gatesim = reference (fir trace)" `Quick
        test_gatesim_matches_reference_fir;
      Alcotest.test_case "gatesim = reference (level shifters)" `Quick
        test_gatesim_matches_reference_shifted;
      Alcotest.test_case "derived activity = re-simulation (quick)" `Quick
        test_derived_activity_quick;
      Alcotest.test_case "extend rejects non-buffers" `Quick test_extend_rejects;
      Alcotest.test_case "power consistency" `Quick test_power_positive_and_consistent;
      Alcotest.test_case "power vdd monotone" `Quick test_power_vdd_monotone;
      Alcotest.test_case "power partial vdd" `Quick test_power_partial_vdd_between;
      Alcotest.test_case "power frequency scaling" `Quick test_power_frequency_scaling;
      Alcotest.test_case "power lgate leakage" `Quick test_power_lgate_leakage;
    ]
    @
    if Sys.getenv_opt "PVTOL_SLOW_TESTS" <> Some "1" then []
    else
      [
        Alcotest.test_case "derived activity = re-simulation (full)" `Slow
          test_derived_activity_full;
      ] )
