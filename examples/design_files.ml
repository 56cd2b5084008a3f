(* Design-file interchange tour: run the front half of the flow on the
   small core and push the design through every file format the library
   speaks — Liberty, structural Verilog, DEF, SDF and SPEF — checking
   each round trip, and replaying the paper's own SDF trick (rewrite
   the delays per the variation model, re-import, re-analyse).

     dune exec examples/design_files.exe *)

module Flow = Pvtol_core.Flow
module Netlist = Pvtol_netlist.Netlist
module Verilog = Pvtol_netlist.Verilog
module Liberty = Pvtol_stdcell.Liberty
module Def = Pvtol_place.Def
module Sdf = Pvtol_timing.Sdf
module Spef = Pvtol_timing.Spef
module Sta = Pvtol_timing.Sta
module Sampler = Pvtol_variation.Sampler
module Position = Pvtol_variation.Position

let () =
  let t = Flow.prepare ~config:Flow.quick_config () in
  let nl = (Flow.netlist t) in

  (* Liberty: the cell library. *)
  let lib_text = Liberty.to_string nl.Netlist.lib in
  let lib2 = Liberty.of_string lib_text in
  Format.printf "Liberty:  %6d bytes, %d cells, round-trip %s@."
    (String.length lib_text)
    (List.length lib2.Pvtol_stdcell.Cell.cells)
    (if List.length lib2.Pvtol_stdcell.Cell.cells
        = List.length nl.Netlist.lib.Pvtol_stdcell.Cell.cells
     then "ok" else "MISMATCH");

  (* Structural Verilog: the netlist itself. *)
  let v_text = Verilog.to_string nl in
  let nl2 = Verilog.of_string nl.Netlist.lib v_text in
  Format.printf "Verilog:  %6d bytes, %d cells, round-trip %s@."
    (String.length v_text) (Netlist.cell_count nl2)
    (if Netlist.cell_count nl2 = Netlist.cell_count nl then "ok" else "MISMATCH");

  (* DEF: the placement. *)
  let def_text = Def.to_string (Flow.placement t) in
  let p2 = Def.of_string nl def_text in
  let dx =
    Array.mapi
      (fun i x -> Float.abs (x -. p2.Pvtol_place.Placement.xs.(i)))
      (Flow.placement t).Pvtol_place.Placement.xs
    |> Array.fold_left Float.max 0.0
  in
  Format.printf "DEF:      %6d bytes, max coordinate error %.4f um@."
    (String.length def_text) dx;

  (* SDF: the delays — including the paper's §4.3 rewriting loop. *)
  let delays = Sta.nominal_delays (Flow.sta t) in
  let sdf_text = Sdf.to_string nl ~delays in
  let systematic =
    Sampler.systematic_lgates (Flow.sampler t) (Flow.placement t) Position.point_a
  in
  let rewritten =
    Sdf.rewrite nl sdf_text ~f:(fun c d ->
        d
        *. Pvtol_stdcell.Process.delay_scale (Flow.sampler t).Sampler.process ~vdd:1.0
             ~lgate_nm:systematic.(c.Netlist.id))
  in
  let slow = Sdf.of_string nl rewritten in
  let r0 = Sta.analyze (Flow.sta t) ~delays in
  let r1 = Sta.analyze (Flow.sta t) ~delays:slow in
  Format.printf
    "SDF:      %6d bytes; variation rewrite at point A: %.3f -> %.3f ns (%+.1f%%)@."
    (String.length sdf_text) r0.Sta.worst r1.Sta.worst
    (100.0 *. (r1.Sta.worst -. r0.Sta.worst) /. r0.Sta.worst);

  (* SPEF: the parasitics, closing the estimate-extract loop. *)
  let parasitics = Spef.extract (Flow.placement t) in
  let spef_text = Spef.to_string nl parasitics in
  let annotated =
    Spef.annotate nl (Spef.of_string nl spef_text)
      ~capture:(Flow.design t).Pvtol_vex.Vex_core.capture_stage
  in
  let ra = Sta.analyze annotated ~delays:(Sta.nominal_delays annotated) in
  Format.printf
    "SPEF:     %6d bytes; annotated STA worst %.3f ns vs placed %.3f ns@."
    (String.length spef_text) ra.Sta.worst r0.Sta.worst
