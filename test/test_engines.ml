(* Differential test of the library Monte-Carlo run (batched SoA kernel,
   fitted delay scale, chunked RNG, pool fan-out) against the serial
   golden oracle [Engine_diff.oracle], at the named die positions A-D,
   one off-diagonal die, and 1/2/4 domains.  Tolerances per
   [Engine_diff]. *)

module MC = Pvtol_ssta.Monte_carlo
module Sta = Pvtol_timing.Sta
module Sampler = Pvtol_variation.Sampler
module Position = Pvtol_variation.Position
module Netlist = Pvtol_netlist.Netlist
module Pool = Pvtol_util.Pool

let env =
  lazy
    (let v = Pvtol_vex.Vex_core.build Pvtol_vex.Vex_core.small_config in
     let nl = v.Pvtol_vex.Vex_core.netlist in
     let fp = Pvtol_place.Floorplan.create ~cell_area:(Netlist.area nl) () in
     let p = Pvtol_place.Placer.place nl fp in
     let sta = Sta.of_placement p ~capture:v.Pvtol_vex.Vex_core.capture_stage in
     (p, sta, Sampler.create ()))

let positions = Position.named @ [ Position.at_xy ~x_frac:0.3 ~y_frac:0.7 ]

let test_mc_golden_vs_batched () =
  let p, sta, sampler = Lazy.force env in
  let config = { MC.samples = 60; seed = 5 } in
  List.iter
    (fun position ->
      let golden = Engine_diff.oracle ~config ~sampler ~sta ~placement:p ~position in
      List.iter
        (fun domains ->
          let pool = Pool.create ~domains () in
          Fun.protect
            ~finally:(fun () -> Pool.shutdown pool)
            (fun () ->
              Engine_diff.check_mc
                ~label:
                  (Printf.sprintf "%s/%d domains" position.Position.label domains)
                golden
                (List.hd
                   (MC.run ~config ~pool ~sampler ~sta ~placement:p
                      [ MC.job position ]))))
        [ 1; 2; 4 ])
    positions

let suite =
  ( "engines",
    [
      Alcotest.test_case "mc golden vs batched (A-D, off-diagonal, 1/2/4 domains)"
        `Quick test_mc_golden_vs_batched;
    ] )
