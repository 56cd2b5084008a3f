(* Scenario sweep: move the core along the chip diagonal (the paper's
   A -> D trajectory, Fig. 2) and watch the violation scenario relax
   one pipeline stage at a time — the empirical basis for the island
   count.

     dune exec examples/scenario_sweep.exe *)

module Flow = Pvtol_core.Flow
module Scenario = Pvtol_ssta.Scenario
module MC = Pvtol_ssta.Monte_carlo
module Position = Pvtol_variation.Position
module Stage = Pvtol_netlist.Stage

let () =
  let t = Flow.prepare ~config:Flow.quick_config () in
  Format.printf "clock %.3f ns; sweeping the chip diagonal:@." (Flow.clock t);
  Format.printf "%-10s %-9s %-28s %s@." "fraction" "scenario" "violating stages"
    "worst 3-sigma slack (ns)";
  let fracs = [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ] in
  (* One run for the whole sweep: every position reads the same
     gaussians. *)
  let mcs =
    MC.run
      ~config:{ MC.samples = 120; seed = 42 }
      ~sampler:(Flow.sampler t) ~sta:(Flow.sta t) ~placement:(Flow.placement t)
      (List.map (fun frac -> MC.job (Position.at_fraction frac)) fracs)
  in
  let previous = ref (-1) in
  List.iter2
    (fun frac mc ->
      let sc = Scenario.classify ~clock:(Flow.clock t) mc in
      let worst =
        List.fold_left
          (fun acc (s : Scenario.stage_slack) -> Float.min acc s.Scenario.slack)
          infinity sc.Scenario.stage_slacks
      in
      Format.printf "%-10.2f %-9d %-28s %+.3f%s@." frac sc.Scenario.index
        (if sc.Scenario.violating = [] then "-"
         else String.concat ", " (List.map Stage.name sc.Scenario.violating))
        worst
        (if sc.Scenario.index <> !previous then "   <- transition" else "");
      previous := sc.Scenario.index)
    fracs mcs;
  Format.printf
    "@.The named positions A/B/C/D sit at fractions 0.00 / 0.25 / 0.55 / 0.80.@."
