(* Edge-case grab bag across modules: file I/O paths, rendering
   helpers, API corners not covered by the focused suites. *)

open Pvtol_netlist
module Table = Pvtol_util.Table
module Stats = Pvtol_util.Stats
module Welford = Pvtol_util.Stream_stats.Welford
module Cell = Pvtol_stdcell.Cell
module Sta = Pvtol_timing.Sta

let with_temp f =
  let path = Filename.temp_file "pvtol_test" ".tmp" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let small =
  lazy
    (let v = Pvtol_vex.Vex_core.build Pvtol_vex.Vex_core.small_config in
     let nl = v.Pvtol_vex.Vex_core.netlist in
     let fp = Pvtol_place.Floorplan.create ~cell_area:(Netlist.area nl) () in
     (v, nl, Pvtol_place.Placer.place nl fp))

(* --- file round trips through actual files --- *)

let test_liberty_file_io () =
  with_temp (fun path ->
      Pvtol_stdcell.Liberty.write_file path Cell.default_library;
      let lib = Pvtol_stdcell.Liberty.read_file path in
      Alcotest.(check int) "cells survive the filesystem"
        (List.length Cell.default_library.Cell.cells)
        (List.length lib.Cell.cells))

let test_def_file_io () =
  let _, nl, p = Lazy.force small in
  with_temp (fun path ->
      Pvtol_place.Def.write_file path p;
      let p2 = Pvtol_place.Def.read_file nl path in
      Alcotest.(check int) "cells placed"
        (Array.length p.Pvtol_place.Placement.xs)
        (Array.length p2.Pvtol_place.Placement.xs))

let test_sdf_file_io () =
  let v, nl, p = Lazy.force small in
  let sta = Sta.of_placement p ~capture:v.Pvtol_vex.Vex_core.capture_stage in
  let delays = Sta.nominal_delays sta in
  with_temp (fun path ->
      Pvtol_timing.Sdf.write_file path nl ~delays;
      let back = Pvtol_timing.Sdf.read_file nl path in
      Alcotest.(check bool) "delays survive the filesystem" true
        (Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-5) delays back))

let test_verilog_file_io () =
  let _, nl, _ = Lazy.force small in
  with_temp (fun path ->
      Pvtol_netlist.Verilog.write_file path nl;
      let nl2 = Pvtol_netlist.Verilog.read_file Cell.default_library path in
      Alcotest.(check int) "netlist survives the filesystem"
        (Netlist.cell_count nl) (Netlist.cell_count nl2))

let test_spef_file_io () =
  let _, nl, p = Lazy.force small in
  with_temp (fun path ->
      Pvtol_timing.Spef.write_file path nl (Pvtol_timing.Spef.extract p);
      let back = Pvtol_timing.Spef.read_file nl path in
      Alcotest.(check int) "parasitics per net" (Netlist.net_count nl)
        (Array.length back))

(* --- rendering helpers --- *)

let test_bar_chart () =
  let chart = Table.bar_chart ~width:10 [ ("aa", 2.0); ("b", 1.0); ("zero", 0.0) ] in
  let lines = String.split_on_char '\n' chart |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "one line per entry" 3 (List.length lines);
  (* The maximum gets the full width. *)
  Alcotest.(check bool) "peak bar full" true
    (String.length (List.nth lines 0) > 10
    &&
    let count c s = String.fold_left (fun a ch -> if ch = c then a + 1 else a) 0 s in
    count '#' (List.nth lines 0) = 10
    && count '#' (List.nth lines 1) = 5
    && count '#' (List.nth lines 2) = 0)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_netlist_pp_summary () =
  let _, nl, _ = Lazy.force small in
  let text = Format.asprintf "%a" Netlist.pp_summary nl in
  Alcotest.(check bool) "mentions register file" true
    (contains ~needle:"Register File" text)

(* --- API corners --- *)

let test_welford_empty_and_one () =
  let acc = Welford.create () in
  Alcotest.(check int) "empty count" 0 (Welford.count acc);
  Alcotest.(check bool) "variance of 0 samples" true (Welford.variance acc = 0.0);
  Welford.add acc 5.0;
  Alcotest.(check bool) "variance of 1 sample" true (Welford.variance acc = 0.0);
  Alcotest.(check bool) "min=max=x" true
    (Welford.min acc = 5.0 && Welford.max acc = 5.0)

let test_find_by_name () =
  let lib = Cell.default_library in
  (match Cell.find_by_name lib "NAND2_X1" with
  | Some c -> Alcotest.(check bool) "kind" true (c.Cell.kind = Pvtol_stdcell.Kind.Nand2)
  | None -> Alcotest.fail "NAND2_X1 should exist");
  Alcotest.(check bool) "missing cell" true (Cell.find_by_name lib "FOO_X9" = None);
  try
    ignore (Cell.find lib Pvtol_stdcell.Kind.Nand2 Cell.X1 |> fun c -> c);
    ()
  with Not_found -> Alcotest.fail "find should succeed"

let test_scaled_delays () =
  let v, _, p = Lazy.force small in
  let sta = Sta.of_placement p ~capture:v.Pvtol_vex.Vex_core.capture_stage in
  let base = Sta.nominal_delays sta in
  let scaled = Sta.scaled_delays sta ~scale:(fun i -> if i mod 2 = 0 then 2.0 else 1.0) in
  Array.iteri
    (fun i b ->
      let expected = if i mod 2 = 0 then 2.0 *. b else b in
      Alcotest.(check bool) "per-cell scale" true
        (Float.abs (scaled.(i) -. expected) < 1e-12))
    base

let test_incremental_no_insertions () =
  let _, nl, p = Lazy.force small in
  let p2, stats = Pvtol_place.Incremental.insert p nl ~desired:(fun _ -> assert false) in
  Alcotest.(check int) "nothing inserted" 0 stats.Pvtol_place.Incremental.inserted;
  Alcotest.(check bool) "positions identical" true
    (p2.Pvtol_place.Placement.xs = p.Pvtol_place.Placement.xs)

let test_stage_share_nonempty () =
  let v, _, p = Lazy.force small in
  let sta = Sta.of_placement p ~capture:v.Pvtol_vex.Vex_core.capture_stage in
  let delays = Sta.nominal_delays sta in
  let r = Sta.analyze sta ~delays in
  match Pvtol_timing.Paths.critical sta ~delays r with
  | Some path ->
    let shares = Pvtol_timing.Paths.stage_share sta path in
    let total = List.fold_left (fun a (_, n) -> a + n) 0 shares in
    Alcotest.(check int) "shares cover all hops" (List.length path.Pvtol_timing.Paths.hops) total
  | None -> Alcotest.fail "critical path expected"

let suite =
  ( "misc",
    [
      Alcotest.test_case "liberty file io" `Quick test_liberty_file_io;
      Alcotest.test_case "def file io" `Quick test_def_file_io;
      Alcotest.test_case "sdf file io" `Quick test_sdf_file_io;
      Alcotest.test_case "verilog file io" `Quick test_verilog_file_io;
      Alcotest.test_case "spef file io" `Quick test_spef_file_io;
      Alcotest.test_case "bar chart" `Quick test_bar_chart;
      Alcotest.test_case "running stats corners" `Quick test_welford_empty_and_one;
      Alcotest.test_case "find by name" `Quick test_find_by_name;
      Alcotest.test_case "scaled delays" `Quick test_scaled_delays;
      Alcotest.test_case "incremental no-op" `Quick test_incremental_no_insertions;
      Alcotest.test_case "stage share totals" `Quick test_stage_share_nonempty;
    ] )
