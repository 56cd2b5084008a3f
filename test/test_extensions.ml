(* Tests for the extension modules: Verilog interchange, quadrant
   islands, logic-based grouping, post-silicon population study. *)

open Pvtol_netlist
module Verilog = Pvtol_netlist.Verilog
module Flow = Pvtol_core.Flow
module Island = Pvtol_core.Island
module Slicing = Pvtol_core.Slicing
module Logic_grouping = Pvtol_core.Logic_grouping
module Level_shifter = Pvtol_core.Level_shifter
module Postsilicon = Pvtol_core.Postsilicon
module Geom = Pvtol_util.Geom
module Density = Pvtol_place.Density
module Cell = Pvtol_stdcell.Cell

let lib = Cell.default_library

let small () =
  (Pvtol_vex.Vex_core.build Pvtol_vex.Vex_core.small_config).Pvtol_vex.Vex_core.netlist

(* --- Verilog --- *)

let test_verilog_roundtrip () =
  let nl = small () in
  let nl2 = Verilog.of_string lib (Verilog.to_string nl) in
  Alcotest.(check int) "cell count" (Netlist.cell_count nl) (Netlist.cell_count nl2);
  (match Netlist.check nl2 with
  | Ok () -> ()
  | Error es -> Alcotest.failf "parsed netlist invalid: %s" (List.hd es));
  (* Cells survive by instance name with kind, drive, stage and unit. *)
  let index nl =
    let t = Hashtbl.create 64 in
    Array.iter (fun (c : Netlist.cell) -> Hashtbl.replace t c.Netlist.name c) nl.Netlist.cells;
    t
  in
  let t1 = index nl and t2 = index nl2 in
  Hashtbl.iter
    (fun name (c1 : Netlist.cell) ->
      match Hashtbl.find_opt t2 name with
      | None -> Alcotest.failf "instance %s lost" name
      | Some c2 ->
        Alcotest.(check string) "cell type"
          (Cell.cell_name c1.Netlist.cell) (Cell.cell_name c2.Netlist.cell);
        Alcotest.(check bool) "stage" true (Stage.equal c1.Netlist.stage c2.Netlist.stage);
        Alcotest.(check string) "unit" c1.Netlist.unit_name c2.Netlist.unit_name)
    t1;
  (* Functional equivalence on a sampled cell: same fanin connectivity
     by driver instance name. *)
  let driver_names nl (c : Netlist.cell) =
    Array.to_list c.Netlist.fanins
    |> List.map (fun nid ->
           match nl.Netlist.nets.(nid).Netlist.driver with
           | Some d -> nl.Netlist.cells.(d).Netlist.name
           | None -> "input:" ^ nl.Netlist.nets.(nid).Netlist.net_name)
  in
  Hashtbl.iter
    (fun name c1 ->
      let c2 = Hashtbl.find t2 name in
      let d1 = driver_names nl c1 and d2 = driver_names nl2 c2 in
      (* Input net names are sanitized by the writer. *)
      let norm = List.map (fun s -> String.map (fun ch -> if ch = '[' || ch = ']' then '_' else ch) s) in
      if norm d1 <> norm d2 then Alcotest.failf "connectivity changed at %s" name)
    t1

let test_verilog_errors () =
  let expect src =
    try
      ignore (Verilog.of_string lib src);
      Alcotest.failf "expected parse error for %S" src
    with Verilog.Parse_error _ -> ()
  in
  expect "module m (a);\n  input a;\n  FROB_X1 u0 (.o(x), .i0(a));\nendmodule\n";
  expect "module m (a);\n  input a;\n  INV_X1 u0 (.i0(a));\nendmodule\n";
  expect "module m (a, z);\n  input a;\n  output z;\nendmodule\n" (* undriven output *);
  (* A non-numeric stage tag, and a ')' before the '(' of the pin list. *)
  expect "module m (a);\n  input a;\n  INV_X1 u0 (.o(x), .i0(a)); // s=x\nendmodule\n";
  expect "module m (a);\n  input a;\n  INV_X1 u0 ) (;\nendmodule\n"

let test_verilog_sequential_loop () =
  (* q = DFF(not q): forward reference to the inverter output. *)
  let src =
    "module m (q);\n\
    \  output q;\n\
    \  wire nq;\n\
    \  DFF_X1 ff (.o(q), .i0(nq)); // s=2 u=ring\n\
    \  INV_X1 inv (.o(nq), .i0(q)); // s=2 u=ring\n\
     endmodule\n"
  in
  let nl = Verilog.of_string lib src in
  Alcotest.(check int) "two cells" 2 (Netlist.cell_count nl);
  match Netlist.check nl with
  | Ok () -> ()
  | Error es -> Alcotest.failf "loop netlist invalid: %s" (List.hd es)

(* --- quadrant islands --- *)

let test_quadrant_regions () =
  let core = Geom.rect ~llx:0.0 ~lly:0.0 ~urx:100.0 ~ury:100.0 in
  let r = Island.region_of_fraction ~core Island.Quadrant Density.Left ~t:0.25 in
  (* sqrt(0.25) = 0.5 of each axis from the lower-left corner. *)
  Alcotest.(check bool) "corner rect" true
    (Float.abs (r.Geom.urx -. 50.0) < 1e-9 && Float.abs (r.Geom.ury -. 50.0) < 1e-9);
  Alcotest.(check bool) "area fraction = t" true
    (Float.abs (Geom.area r -. 2500.0) < 1e-6);
  let full = Island.region_of_fraction ~core Island.Quadrant Density.Right ~t:1.0 in
  Alcotest.(check bool) "t=1 covers the core" true (Geom.subsumes full core)

let env =
  lazy
    (let t = Flow.prepare ~config:Flow.quick_config () in
     (t, Flow.variant t Island.Vertical))

let test_quadrant_generation () =
  let t, _ = Lazy.force env in
  let o =
    Slicing.generate ~direction:Island.Quadrant ~sta:(Flow.sta t)
      ~placement:(Flow.placement t) ~sampler:(Flow.sampler t)
      ~clock:(Flow.clock t) ~targets:Flow.growth_targets
  in
  let islands = o.Slicing.partition.Island.islands in
  Alcotest.(check int) "three islands" 3 (Array.length islands);
  for k = 0 to 1 do
    Alcotest.(check bool) "nested" true
      (Geom.subsumes islands.(k + 1).Island.region islands.(k).Island.region)
  done

(* --- logic-based grouping --- *)

let test_logic_grouping () =
  let t, _ = Lazy.force env in
  let lg =
    Logic_grouping.generate ~sta:(Flow.sta t) ~placement:(Flow.placement t)
      ~sampler:(Flow.sampler t) ~clock:(Flow.clock t)
      ~targets:Flow.growth_targets
  in
  let n = Netlist.cell_count (Flow.netlist t) in
  Alcotest.(check int) "domain per cell" n (Array.length lg.Logic_grouping.domains);
  (* Domains are within range and nested by construction: a scenario-1
     unit's cells stay domain 1. *)
  Array.iter
    (fun d -> Alcotest.(check bool) "domain range" true (d >= 1 && d <= 4))
    lg.Logic_grouping.domains;
  (* Cells of a unit share a domain. *)
  let dom_of_unit = Hashtbl.create 32 in
  Array.iter
    (fun (c : Netlist.cell) ->
      let d = lg.Logic_grouping.domains.(c.Netlist.id) in
      match Hashtbl.find_opt dom_of_unit c.Netlist.unit_name with
      | None -> Hashtbl.replace dom_of_unit c.Netlist.unit_name d
      | Some d' -> Alcotest.(check int) "unit is atomic" d' d)
    (Flow.netlist t).Netlist.cells;
  (* Crossing count is non-negative and bounded by net count. *)
  let ls =
    Level_shifter.count_domain_crossings (Flow.netlist t)
      ~domains:lg.Logic_grouping.domains
  in
  Alcotest.(check bool) "ls bounded" true
    (ls >= 0 && ls <= Netlist.net_count (Flow.netlist t))

let test_fragmentation_slab_is_one () =
  let t, v = Lazy.force env in
  let domains =
    Island.domains v.Flow.slicing.Slicing.partition (Flow.placement t)
  in
  let frag = Logic_grouping.fragmentation (Flow.placement t) ~domains ~raised:3 in
  Alcotest.(check int) "slab island is one domain" 1 frag

let test_fragmentation_scattered () =
  let t, _ = Lazy.force env in
  let n = Netlist.cell_count (Flow.netlist t) in
  (* A deliberately scattered assignment: every 7th cell raised. *)
  let domains = Array.init n (fun i -> if i mod 7 = 0 then 1 else 2) in
  let frag = Logic_grouping.fragmentation (Flow.placement t) ~domains ~raised:1 in
  (* Nothing reaches majority in any bin -> zero routable domains, or a
     few scattered ones; certainly not a clean single region covering
     the raised cells. *)
  Alcotest.(check bool) "scatter is not one clean region" true (frag <> 1 || frag = 0)

(* --- retiming bound --- *)

let test_retiming_balanced_gains_nothing () =
  let module Retiming = Pvtol_core.Retiming in
  let delay_of _ = Some 2.0 in
  let r = Retiming.bound ~delay_of in
  Alcotest.(check bool) "balanced stages: no gain" true
    (Float.abs r.Retiming.gain < 1e-9)

let test_retiming_borrowing () =
  let module Retiming = Pvtol_core.Retiming in
  let module Stage = Pvtol_netlist.Stage in
  (* A slow DECODE can borrow: the WB->DC->EX loop averages below the
     max, and decode sits in no single-stage loop. *)
  let delay_of = function
    | Stage.Decode -> Some 3.0
    | Stage.Execute -> Some 1.5
    | Stage.Writeback -> Some 1.5
    | Stage.Fetch -> Some 1.0
    | _ -> None
  in
  let r = Retiming.bound ~delay_of in
  Alcotest.(check bool) "retiming helps a lone slow stage" true
    (r.Retiming.t_retimed < r.Retiming.t_unretimed -. 0.5);
  (* But a slow EXECUTE is trapped by its forwarding self-loop. *)
  let delay_of = function
    | Stage.Execute -> Some 3.0
    | s -> if s = Stage.Fetch || s = Stage.Decode || s = Stage.Writeback then Some 1.0 else None
  in
  let r = Retiming.bound ~delay_of in
  Alcotest.(check bool) "execute self-loop forbids borrowing" true
    (Float.abs (r.Retiming.t_retimed -. 3.0) < 1e-9);
  Alcotest.(check bool) "binding loop is execute" true
    (r.Retiming.binding_loop = [ Pvtol_netlist.Stage.Execute ])

(* --- adaptive body bias --- *)

let test_abb_models () =
  let module P = Pvtol_stdcell.Process in
  let p = P.default in
  (* Forward bias speeds up and leaks more, monotonically. *)
  let d0 = P.abb_delay_scale p ~vbb:0.0 ~lgate_nm:p.P.l_nominal_nm in
  let d4 = P.abb_delay_scale p ~vbb:0.4 ~lgate_nm:p.P.l_nominal_nm in
  Alcotest.(check bool) "zero bias is unity" true (Float.abs (d0 -. 1.0) < 1e-9);
  Alcotest.(check bool) "forward bias speeds up" true (d4 < d0);
  let l0 = P.abb_leakage_scale p ~vbb:0.0 ~lgate_nm:p.P.l_nominal_nm in
  let l4 = P.abb_leakage_scale p ~vbb:0.4 ~lgate_nm:p.P.l_nominal_nm in
  Alcotest.(check bool) "zero bias leakage unity" true (Float.abs (l0 -. 1.0) < 1e-9);
  Alcotest.(check bool) "forward bias leaks much more" true (l4 > 2.0);
  (* abb_for_speedup inverts abb_delay_scale. *)
  let vbb = P.abb_for_speedup p ~speedup:1.1 in
  let achieved = 1.0 /. P.abb_delay_scale p ~vbb ~lgate_nm:p.P.l_nominal_nm in
  Alcotest.(check bool) "speedup solver inverts" true (Float.abs (achieved -. 1.1) < 1e-3);
  (* The paper's [13] claim: matching the AVS boost needs a Vth change
     several times larger, percentage-wise, than the Vdd change. *)
  let avs = P.speedup_high_vdd p in
  let vbb = P.abb_for_speedup p ~speedup:avs in
  let dvth = P.body_factor *. vbb in
  let vth = P.vth_eff p ~vdd:p.P.vdd_low ~lgate_nm:p.P.l_nominal_nm in
  let rel_vth = dvth /. vth in
  let rel_vdd = (p.P.vdd_high -. p.P.vdd_low) /. p.P.vdd_low in
  Alcotest.(check bool) "ABB needs no smaller relative knob than AVS" true
    (rel_vth >= rel_vdd *. 0.9)

(* --- power grid / IR drop --- *)

let test_power_grid_slab () =
  let module PG = Pvtol_core.Power_grid in
  let t, v = Lazy.force env in
  let domains =
    Island.domains v.Flow.slicing.Slicing.partition (Flow.placement t)
  in
  let r =
    PG.analyze ~placement:(Flow.placement t)
      ~member:(fun cid -> domains.(cid) <= 3)
      ~current_ma:(fun _ -> 0.002)
      ~vdd:1.2
  in
  Alcotest.(check int) "slab fully reachable" 0 r.PG.unreachable_bins;
  Alcotest.(check bool) "has pads" true (r.PG.pad_bins > 0);
  Alcotest.(check bool) "positive drop" true (r.PG.max_drop_mv > 0.0);
  Alcotest.(check bool) "drop below the rail" true (r.PG.max_drop_mv < 1200.0);
  (* Linearity: doubling the current doubles the drop. *)
  let r2 =
    PG.analyze ~placement:(Flow.placement t)
      ~member:(fun cid -> domains.(cid) <= 3)
      ~current_ma:(fun _ -> 0.004)
      ~vdd:1.2
  in
  Alcotest.(check bool) "resistive linearity" true
    (Float.abs (r2.PG.max_drop_mv -. (2.0 *. r.PG.max_drop_mv))
    < 0.05 *. r2.PG.max_drop_mv +. 1e-6)

let test_power_grid_interior_island_unreachable () =
  let module PG = Pvtol_core.Power_grid in
  let t, _ = Lazy.force env in
  let placement = Flow.placement t in
  let core = placement.Pvtol_place.Placement.floorplan.Pvtol_place.Floorplan.core in
  (* Select only cells in a small interior square that touches no core
     edge: the supply cannot reach it along its own domain. *)
  let member cid =
    let x = placement.Pvtol_place.Placement.xs.(cid) in
    let y = placement.Pvtol_place.Placement.ys.(cid) in
    let w = Geom.width core and h = Geom.height core in
    x > core.Geom.llx +. (0.4 *. w)
    && x < core.Geom.llx +. (0.6 *. w)
    && y > core.Geom.lly +. (0.4 *. h)
    && y < core.Geom.lly +. (0.6 *. h)
  in
  let r =
    PG.analyze ~placement ~member
      ~current_ma:(fun _ -> 0.002)
      ~vdd:1.2
  in
  Alcotest.(check int) "no boundary pads" 0 r.PG.pad_bins;
  Alcotest.(check bool) "interior island unreachable" true
    (r.PG.unreachable_bins > 0);
  Alcotest.(check int) "nothing supplied" 0 r.PG.supplied_bins

(* --- post-silicon study --- *)

let test_postsilicon () =
  let t, v = Lazy.force env in
  let s = Postsilicon.run ~n_chips:12 ~seed:3 t v in
  Alcotest.(check int) "chip count" 12 (List.length s.Postsilicon.chips);
  Alcotest.(check bool) "compensation never hurts yield" true
    (s.Postsilicon.yield_compensated >= s.Postsilicon.yield_uncompensated);
  List.iter
    (fun (c : Postsilicon.chip) ->
      Alcotest.(check bool) "raised >= violating (closed loop)" true
        (c.Postsilicon.raised >= min c.Postsilicon.violating 3);
      Alcotest.(check bool) "fraction in range" true
        (c.Postsilicon.diagonal_frac >= 0.0 && c.Postsilicon.diagonal_frac <= 1.0);
      if c.Postsilicon.meets_uncompensated then
        Alcotest.(check int) "passing die raises nothing" 0 c.Postsilicon.raised)
    s.Postsilicon.chips;
  (* Determinism. *)
  let s2 = Postsilicon.run ~n_chips:12 ~seed:3 t v in
  Alcotest.(check bool) "deterministic" true
    (s.Postsilicon.yield_compensated = s2.Postsilicon.yield_compensated
    && s.Postsilicon.mean_raised = s2.Postsilicon.mean_raised)

let suite =
  ( "extensions",
    [
      Alcotest.test_case "verilog roundtrip" `Quick test_verilog_roundtrip;
      Alcotest.test_case "verilog errors" `Quick test_verilog_errors;
      Alcotest.test_case "verilog sequential loop" `Quick test_verilog_sequential_loop;
      Alcotest.test_case "quadrant regions" `Quick test_quadrant_regions;
      Alcotest.test_case "quadrant generation" `Quick test_quadrant_generation;
      Alcotest.test_case "logic grouping" `Quick test_logic_grouping;
      Alcotest.test_case "fragmentation slab" `Quick test_fragmentation_slab_is_one;
      Alcotest.test_case "fragmentation scattered" `Quick test_fragmentation_scattered;
      Alcotest.test_case "retiming balanced" `Quick test_retiming_balanced_gains_nothing;
      Alcotest.test_case "retiming borrowing" `Quick test_retiming_borrowing;
      Alcotest.test_case "abb models" `Quick test_abb_models;
      Alcotest.test_case "power grid slab" `Quick test_power_grid_slab;
      Alcotest.test_case "power grid interior island" `Quick
        test_power_grid_interior_island_unreachable;
      Alcotest.test_case "post-silicon study" `Quick test_postsilicon;
    ] )
