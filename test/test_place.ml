(* Tests for the placement substrate: floorplan, placer, legalizer,
   density map, DEF interchange, incremental insertion. *)

open Pvtol_place
module Netlist = Pvtol_netlist.Netlist
module Geom = Pvtol_util.Geom
module Cell = Pvtol_stdcell.Cell

let small_design () =
  (Pvtol_vex.Vex_core.build Pvtol_vex.Vex_core.small_config).Pvtol_vex.Vex_core.netlist

let placed =
  lazy
    (let nl = small_design () in
     let fp = Floorplan.create ~cell_area:(Netlist.area nl) () in
     (nl, fp, Placer.place nl fp))

(* --- floorplan --- *)

let test_floorplan_sizing () =
  let fp = Floorplan.create ~cell_area:7000.0 ~utilization:0.7 () in
  let cap = Geom.area fp.Floorplan.core in
  Alcotest.(check bool) "capacity fits area/util" true (cap >= 10000.0);
  Alcotest.(check bool) "not oversized" true (cap < 11500.0);
  Alcotest.(check int) "row count consistent" fp.Floorplan.n_rows
    (int_of_float (Float.round (Geom.height fp.Floorplan.core /. fp.Floorplan.row_height)))

let test_floorplan_rows () =
  let fp = Floorplan.create ~cell_area:5000.0 () in
  Alcotest.(check int) "row_of_y inverse of row_y" 5
    (Floorplan.row_of_y fp (Floorplan.row_y fp 5 +. 0.1));
  Alcotest.(check int) "clamped below" 0 (Floorplan.row_of_y fp (-10.0));
  Alcotest.(check int) "clamped above" (fp.Floorplan.n_rows - 1)
    (Floorplan.row_of_y fp 1e9)

(* --- placer + legalizer --- *)

let test_placement_legal () =
  let _, _, p = Lazy.force placed in
  match Legalize.check p with
  | Ok () -> ()
  | Error es ->
    Alcotest.failf "%d legality errors, first: %s" (List.length es) (List.hd es)

let test_placement_beats_random () =
  let nl, fp, p = Lazy.force placed in
  let random = Placer.global_only ~iterations:0 nl fp in
  Alcotest.(check bool) "placer beats scatter by 2x" true
    (Placement.total_hpwl p *. 2.0 < Placement.total_hpwl random)

let test_placement_deterministic () =
  let nl, fp, p = Lazy.force placed in
  let p2 = Placer.place nl fp in
  Alcotest.(check bool) "same coordinates" true
    (p.Placement.xs = p2.Placement.xs && p.Placement.ys = p2.Placement.ys)

let test_padding_reserves_space () =
  let nl, fp, _ = Lazy.force placed in
  let p = Placer.place ~padding:0.3 nl fp in
  (match Legalize.check p with
  | Ok () -> ()
  | Error es -> Alcotest.failf "padded placement illegal: %s" (List.hd es));
  ()

(* --- hpwl / wire length --- *)

let test_hpwl_small_case () =
  let nl, fp, p = Lazy.force placed in
  ignore fp;
  (* Construct expected HPWL for one net by hand. *)
  let net =
    Array.to_seq nl.Netlist.nets
    |> Seq.find (fun (n : Netlist.net) ->
           n.Netlist.driver <> None && Array.length n.Netlist.sinks >= 2)
    |> Option.get
  in
  let pts =
    (Option.get net.Netlist.driver
    :: (Array.to_list net.Netlist.sinks |> List.map fst))
    |> List.map (fun cid -> (p.Placement.xs.(cid), p.Placement.ys.(cid)))
  in
  let xs = List.map fst pts and ys = List.map snd pts in
  let expected =
    List.fold_left Float.max neg_infinity xs
    -. List.fold_left Float.min infinity xs
    +. List.fold_left Float.max neg_infinity ys
    -. List.fold_left Float.min infinity ys
  in
  let got = Placement.hpwl p net.Netlist.net_id in
  Alcotest.(check bool) "hpwl matches bbox half-perimeter" true
    (Float.abs (expected -. got) < 1e-9)

let test_wire_length_correction () =
  let nl, _, p = Lazy.force placed in
  Array.iter
    (fun (n : Netlist.net) ->
      let h = Placement.hpwl p n.Netlist.net_id in
      let w = Placement.wire_length p n.Netlist.net_id in
      if Array.length n.Netlist.sinks <= 1 then
        Alcotest.(check bool) "no correction for fanout 1" true
          (Float.abs (w -. h) < 1e-9)
      else
        Alcotest.(check bool) "corrected length >= hpwl" true (w >= h -. 1e-9))
    nl.Netlist.nets

(* --- density --- *)

let test_density_conserves_area () =
  let nl, _, p = Lazy.force placed in
  let d = Density.compute p in
  let total = Array.fold_left ( +. ) 0.0 d.Density.occupied in
  Alcotest.(check bool) "bins hold total area" true
    (Float.abs (total -. Netlist.area nl) < 1e-6)

(* --- DEF --- *)

let test_def_roundtrip () =
  let nl, _, p = Lazy.force placed in
  let text = Def.to_string p in
  let p2 = Def.of_string nl text in
  let max_err = ref 0.0 in
  Array.iteri
    (fun i x ->
      max_err := Float.max !max_err (Float.abs (x -. p2.Placement.xs.(i)));
      max_err := Float.max !max_err (Float.abs (p.Placement.ys.(i) -. p2.Placement.ys.(i))))
    p.Placement.xs;
  Alcotest.(check bool) "coordinates survive to DEF precision" true (!max_err <= 0.001);
  Alcotest.(check int) "row count survives" p.Placement.floorplan.Floorplan.n_rows
    p2.Placement.floorplan.Floorplan.n_rows

let test_def_errors () =
  let nl, _, _ = Lazy.force placed in
  (try
     ignore (Def.of_string nl "VERSION 5.8 ;\n");
     Alcotest.fail "missing DIEAREA should fail"
   with Def.Parse_error _ -> ());
  try
    ignore
      (Def.of_string nl
         "DIEAREA ( 0 0 ) ( 1000 1000 ) ;\nROWDEFS 10 1800 200 ;\n- ghost INV_X1 + PLACED ( 1 1 ) N ;\n");
    Alcotest.fail "unknown component should fail"
  with Def.Parse_error _ -> ()

(* --- incremental insertion --- *)

let test_incremental_insert () =
  let nl, _, p = Lazy.force placed in
  (* Append 50 level shifters to the netlist via the production surgery
     path: reuse Level_shifter on a tiny single-island partition. *)
  let core = p.Placement.floorplan.Floorplan.core in
  let region =
    Geom.rect ~llx:core.Geom.llx ~lly:core.Geom.lly
      ~urx:(core.Geom.llx +. (Geom.width core /. 2.0))
      ~ury:core.Geom.ury
  in
  let partition =
    {
      Pvtol_core.Island.direction = Pvtol_core.Island.Vertical;
      side = Density.Left;
      islands =
        [|
          {
            Pvtol_core.Island.index = 1;
            region;
            cells = Pvtol_core.Island.cells_in p region;
          };
        |];
      core;
    }
  in
  let shifted = Pvtol_core.Level_shifter.insert partition p nl in
  let np = shifted.Pvtol_core.Level_shifter.placement in
  (match Legalize.check np with
  | Ok () -> ()
  | Error es -> Alcotest.failf "post-insert illegal: %s" (List.hd es));
  (* Original cells kept their exact coordinates. *)
  let moved = ref 0 in
  for i = 0 to Netlist.cell_count nl - 1 do
    if
      Float.abs (np.Placement.xs.(i) -. p.Placement.xs.(i)) > 1e-9
      || Float.abs (np.Placement.ys.(i) -. p.Placement.ys.(i)) > 1e-9
    then incr moved
  done;
  Alcotest.(check int) "ECO insertion moves no original cell" 0 !moved;
  Alcotest.(check bool) "some shifters inserted" true
    (shifted.Pvtol_core.Level_shifter.count > 0)

(* The library's gap map against the list version it replaced
   ([Eco_oracle]) on random rows.  Every coordinate is dyadic — 2 um
   rows, cells on a 0.25 um grid, targets on a 0.125 um grid — so all
   costs are exact and gaps left and right of a target, or in rows
   above and below it, often tie.  One new cell in 25 is 4 um wide: it
   fits only where a row ends in a long free tail, so some rows have no
   gap that fits, and some cases run out of space. *)
let eco_base = lazy (small_design ())

let eco_case seed =
  let st = Random.State.make [| seed |] in
  let base = Lazy.force eco_base in
  let template = base.Netlist.cells.(0) in
  let rh = 2.0 in
  let n_rows = 1 + Random.State.int st 5 in
  let width = 0.25 *. float_of_int (40 + Random.State.int st 160) in
  let fp =
    {
      Floorplan.core =
        Geom.rect ~llx:0.0 ~lly:0.0 ~urx:width ~ury:(rh *. float_of_int n_rows);
      row_height = rh;
      site_width = 0.25;
      n_rows;
      utilization = 0.7;
    }
  in
  let cell id w =
    {
      template with
      Netlist.id;
      cell = { template.Netlist.cell with Cell.area = w *. rh };
    }
  in
  let old_cells = ref [] and spots = ref [] and n_old = ref 0 in
  for r = 0 to n_rows - 1 do
    let cursor = ref (0.25 *. float_of_int (Random.State.int st 4)) in
    let tail = 0.25 *. float_of_int (Random.State.int st 2 * Random.State.int st 48) in
    while !cursor < width -. tail do
      let w = 0.25 *. float_of_int (1 + Random.State.int st 6) in
      if !cursor +. w <= width -. tail then begin
        old_cells := cell !n_old w :: !old_cells;
        incr n_old;
        spots := (!cursor +. (w /. 2.0), (rh *. float_of_int r) +. (rh /. 2.0)) :: !spots
      end;
      cursor := !cursor +. w +. (0.25 *. float_of_int (Random.State.int st 9))
    done
  done;
  let old_cells = Array.of_list (List.rev !old_cells) in
  let spots = Array.of_list (List.rev !spots) in
  let n_old = !n_old in
  let n_new = Random.State.int st 30 in
  let new_cells =
    Array.init n_new (fun k ->
        let quanta =
          if Random.State.int st 25 = 0 then 16 else 1 + Random.State.int st 8
        in
        cell (n_old + k) (0.25 *. float_of_int quanta))
  in
  let targets =
    Array.init n_new (fun _ ->
        Geom.point
          ((0.125 *. float_of_int (Random.State.int st (int_of_float (width *. 8.0) + 48)))
          -. 3.0)
          (0.125 *. float_of_int (Random.State.int st (16 * n_rows))))
  in
  let nl_old = { base with Netlist.cells = old_cells; nets = [||]; inputs = [||]; outputs = [||] } in
  let nl = { nl_old with Netlist.cells = Array.append old_cells new_cells } in
  let p =
    {
      Placement.netlist = nl_old;
      floorplan = fp;
      xs = Array.map fst spots;
      ys = Array.map snd spots;
    }
  in
  (p, nl, fun cid -> targets.(cid - n_old))

let eco_outcome insert (p, nl, desired) =
  match insert p nl ~desired with
  | (q : Placement.t), (stats : Incremental.stats) ->
    Marshal.to_string (Ok (q.Placement.xs, q.Placement.ys, stats)) []
  | exception Failure m -> Marshal.to_string (Error m) []

let prop_eco_matches_oracle =
  QCheck.Test.make ~name:"eco insert = list oracle on random rows" ~count:400
    (QCheck.int_bound 1_000_000) (fun seed ->
      let case = eco_case seed in
      eco_outcome Incremental.insert case = eco_outcome Eco_oracle.insert case)

(* --- global router --- *)

let test_router_basics () =
  let nl, _, p = Lazy.force placed in
  let r = Router.route p in
  (* Every live multi-gcell net got a route at least as long as a step;
     totals are consistent. *)
  let sum = Array.fold_left ( +. ) 0.0 r.Router.routed_um in
  Alcotest.(check bool) "total = sum of nets" true
    (Float.abs (sum -. r.Router.total_um) < 1e-6);
  Alcotest.(check bool) "routed >= hpwl total" true
    (r.Router.total_um >= r.Router.total_hpwl_um *. 0.99);
  Alcotest.(check bool) "utilization stats sane" true
    (r.Router.max_utilization >= r.Router.mean_utilization
    && r.Router.mean_utilization >= 0.0);
  Array.iter
    (fun (net : Netlist.net) ->
      let um = Router.wire_length r net.Netlist.net_id in
      Alcotest.(check bool) "nonnegative length" true (um >= 0.0))
    nl.Netlist.nets

let test_router_deterministic () =
  let _, _, p = Lazy.force placed in
  let a = Router.route p and b = Router.route p in
  Alcotest.(check bool) "same routes" true (a.Router.routed_um = b.Router.routed_um)

let test_router_reroute_reduces_overflow () =
  let _, _, p = Lazy.force placed in
  let cfg0 = { Router.default_config with Router.reroute_passes = 0 } in
  let cfg2 = { Router.default_config with Router.reroute_passes = 3 } in
  let r0 = Router.route ~config:cfg0 p in
  let r2 = Router.route ~config:cfg2 p in
  Alcotest.(check bool) "reroute does not worsen overflow" true
    (r2.Router.overflowed_edges <= r0.Router.overflowed_edges)

let test_router_capacity_override () =
  let _, _, p = Lazy.force placed in
  let tight = Router.route ~config:{ Router.default_config with Router.tracks_per_edge = 2 } p in
  let loose = Router.route ~config:{ Router.default_config with Router.tracks_per_edge = 10_000 } p in
  Alcotest.(check int) "huge capacity: no overflow" 0 loose.Router.overflowed_edges;
  Alcotest.(check bool) "tight capacity overflows more" true
    (tight.Router.overflowed_edges >= loose.Router.overflowed_edges)

let test_cell_width () =
  let nl, fp, _ = Lazy.force placed in
  let c = nl.Netlist.cells.(0) in
  let w = Placement.cell_width c fp in
  Alcotest.(check bool) "width x height = area" true
    (Float.abs ((w *. fp.Floorplan.row_height) -. c.Netlist.cell.Cell.area) < 1e-9)

(* --- placement pins --- *)

let positions_digest (p : Placement.t) =
  Digest.to_hex (Digest.string (Marshal.to_string (p.Placement.xs, p.Placement.ys) []))

(* The force-directed phase with the flow's parameters (utilization
   0.48, seed 1), pinned bit for bit: a kernel rewrite must keep every
   float operation in order. *)
let global_digest vex ~iterations =
  let nl = (Pvtol_vex.Vex_core.build vex).Pvtol_vex.Vex_core.netlist in
  let fp = Floorplan.create ~utilization:0.48 ~cell_area:(Netlist.area nl) () in
  positions_digest (Placer.global_only ~iterations ~seed:1 nl fp)

let test_placement_pinned_quick () =
  Alcotest.(check string) "global placement (quick design)" "2cd97aa457231189e7905ce219ed2f9b"
    (global_digest Pvtol_vex.Vex_core.small_config ~iterations:24);
  let _, _, p = Lazy.force placed in
  Alcotest.(check string) "legalized placement (small design, defaults)" "0f4339fc99038abb3011ac8a82bf577e"
    (positions_digest p)

let test_placement_pinned_full () =
  Alcotest.(check string) "global placement (full design)" "241a8fe586af8d6eb50faaf10e376232"
    (global_digest Pvtol_vex.Vex_core.default_config ~iterations:48)

let suite =
  ( "place",
    [
      Alcotest.test_case "floorplan sizing" `Quick test_floorplan_sizing;
      Alcotest.test_case "floorplan rows" `Quick test_floorplan_rows;
      Alcotest.test_case "placement legal" `Quick test_placement_legal;
      Alcotest.test_case "placement beats random" `Quick test_placement_beats_random;
      Alcotest.test_case "placement deterministic" `Quick test_placement_deterministic;
      Alcotest.test_case "padding legal" `Quick test_padding_reserves_space;
      Alcotest.test_case "hpwl small case" `Quick test_hpwl_small_case;
      Alcotest.test_case "wire length correction" `Quick test_wire_length_correction;
      Alcotest.test_case "density conserves area" `Quick test_density_conserves_area;
      Alcotest.test_case "def roundtrip" `Quick test_def_roundtrip;
      Alcotest.test_case "def errors" `Quick test_def_errors;
      Alcotest.test_case "incremental insert" `Quick test_incremental_insert;
      QCheck_alcotest.to_alcotest prop_eco_matches_oracle;
      Alcotest.test_case "router basics" `Quick test_router_basics;
      Alcotest.test_case "router deterministic" `Quick test_router_deterministic;
      Alcotest.test_case "router reroute" `Quick test_router_reroute_reduces_overflow;
      Alcotest.test_case "router capacity" `Quick test_router_capacity_override;
      Alcotest.test_case "cell width" `Quick test_cell_width;
      Alcotest.test_case "placement pinned (quick)" `Quick test_placement_pinned_quick;
    ]
    @
    if Sys.getenv_opt "PVTOL_SLOW_TESTS" <> Some "1" then []
    else
      [ Alcotest.test_case "placement pinned (full)" `Slow test_placement_pinned_full ] )
