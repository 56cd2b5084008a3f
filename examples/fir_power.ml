(* FIR workload power analysis: run the FIR benchmark on the VLIW
   instruction-set simulator, drive the gate-level netlist with the
   resulting instruction trace, and report the PrimePower-style power
   breakdown — the paper's power-measurement pipeline in miniature.

     dune exec examples/fir_power.exe *)

module Fir = Pvtol_vexsim.Fir
module Sim = Pvtol_vexsim.Sim
module Asm = Pvtol_vexsim.Asm
module Gatesim = Pvtol_power.Gatesim
module Power = Pvtol_power.Power
module Netlist = Pvtol_netlist.Netlist
module Placement = Pvtol_place.Placement

let () =
  (* 1. The benchmark on the ISS, checked against a direct convolution. *)
  let fir = Fir.run ~taps:16 ~samples:64 () in
  Format.printf "FIR on the VEX ISS: %d cycles, %d ops (IPC %.2f), %s@."
    fir.Fir.stats.Sim.cycles fir.Fir.stats.Sim.ops_executed
    (Sim.ipc fir.Fir.stats)
    (if Fir.check fir then "output matches the reference convolution"
     else "OUTPUT MISMATCH");
  Format.printf "  per-slot utilization: %s@."
    (String.concat " "
       (Array.to_list
          (Array.mapi
             (fun i n ->
               Printf.sprintf "slot%d=%.0f%%" i
                 (100.0 *. float_of_int n /. float_of_int fir.Fir.stats.Sim.cycles))
             fir.Fir.stats.Sim.slot_active)));

  (* A taste of the assembler: print the first bundles of the program. *)
  let src = Fir.program ~taps:16 ~samples:64 in
  let prog = Asm.assemble src in
  Format.printf "@.First bundles of the FIR program:@.%s@."
    (String.concat "\n"
       (List.filteri (fun i _ -> i < 5)
          (String.split_on_char '\n' (Asm.disassemble prog))));

  (* 2. Gate-level switching activity under that instruction stream. *)
  let design = Pvtol_vex.Vex_core.build Pvtol_vex.Vex_core.small_config in
  let nl = design.Pvtol_vex.Vex_core.netlist in
  let fp = Pvtol_place.Floorplan.create ~cell_area:(Netlist.area nl) () in
  let placement = Pvtol_place.Placer.place nl fp in
  let stim =
    Gatesim.trace_stimulus nl ~words:fir.Fir.trace
      ~fallback:(Gatesim.random_stimulus ~seed:11)
  in
  let activity = Gatesim.run ~cycles:256 nl stim in
  Format.printf "Gate-level simulation: 256 of %d trace cycles, mean toggle rate %.3f@."
    (List.length fir.Fir.trace) (Gatesim.mean_rate activity);

  (* 3. Power report at the nominal corner. *)
  let sta =
    Pvtol_timing.Sta.of_placement placement
      ~capture:design.Pvtol_vex.Vex_core.capture_stage
  in
  let r = Pvtol_timing.Sta.analyze sta ~delays:(Pvtol_timing.Sta.nominal_delays sta) in
  let report =
    Power.analyze
      ~vdd:(fun _ -> 1.0)
      ~activity
      ~wire_length:(fun nid -> Placement.wire_length placement nid)
      ~clock_ns:r.Pvtol_timing.Sta.worst nl
  in
  Format.printf "@.%a" Power.pp report
