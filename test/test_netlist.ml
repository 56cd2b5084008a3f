(* Tests for Pvtol_netlist: builder, invariants, surgery helpers. *)

open Pvtol_netlist
module Builder = Netlist.Builder
module Kind = Pvtol_stdcell.Kind
module Cell = Pvtol_stdcell.Cell

let lib = Cell.default_library
let stage = Stage.Execute

let test_builder_basics () =
  let b = Builder.create ~design_name:"t" lib in
  let a = Builder.input b "a" in
  let c = Builder.input b "c" in
  let n1 = Builder.add b ~stage ~unit_name:"u" Kind.Nand2 [| a; c |] in
  let n2 = Builder.add b ~stage ~unit_name:"u" Kind.Inv [| n1 |] in
  Builder.output b n2 "out";
  let nl = Builder.freeze b in
  Alcotest.(check int) "cells" 2 (Netlist.cell_count nl);
  Alcotest.(check int) "nets" 4 (Netlist.net_count nl);
  Alcotest.(check int) "inputs" 2 (Array.length nl.Netlist.inputs);
  Alcotest.(check int) "outputs" 1 (Array.length nl.Netlist.outputs);
  (match Netlist.check nl with
  | Ok () -> ()
  | Error es -> Alcotest.failf "check failed: %s" (List.hd es))

let test_arity_error () =
  let b = Builder.create lib in
  let a = Builder.input b "a" in
  try
    ignore (Builder.add b ~stage ~unit_name:"u" Kind.Nand2 [| a |]);
    Alcotest.fail "arity error expected"
  with Invalid_argument _ -> ()

let test_unknown_net_error () =
  let b = Builder.create lib in
  try
    ignore (Builder.add b ~stage ~unit_name:"u" Kind.Inv [| 42 |]);
    Alcotest.fail "undeclared net error expected"
  with Invalid_argument _ -> ()

let test_cycle_detection () =
  let b = Builder.create lib in
  let stub = Builder.placeholder b "loop" in
  let n1 = Builder.add b ~stage ~unit_name:"u" Kind.Inv [| stub |] in
  let n2 = Builder.add b ~stage ~unit_name:"u" Kind.Inv [| n1 |] in
  (* Close a purely combinational loop. *)
  (match Builder.driver_of b n1 with
  | Some cell -> Builder.rewire b ~cell ~pin:0 n2
  | None -> Alcotest.fail "driver expected");
  try
    ignore (Builder.freeze b);
    Alcotest.fail "combinational cycle should be rejected"
  with Failure _ -> ()

let test_dff_loop_allowed () =
  (* The same loop through a flop is fine. *)
  let b = Builder.create lib in
  let stub = Builder.placeholder b "d" in
  let q = Builder.add b ~stage ~unit_name:"u" Kind.Dff [| stub |] in
  let inv = Builder.add b ~stage ~unit_name:"u" Kind.Inv [| q |] in
  (match Builder.driver_of b q with
  | Some cell -> Builder.rewire b ~cell ~pin:0 inv
  | None -> Alcotest.fail "driver expected");
  let nl = Builder.freeze b in
  match Netlist.check nl with
  | Ok () -> ()
  | Error es -> Alcotest.failf "check failed: %s" (List.hd es)

let test_undriven_net_rejected () =
  let b = Builder.create lib in
  let stub = Builder.placeholder b "dangling" in
  ignore (Builder.add b ~stage ~unit_name:"u" Kind.Inv [| stub |]);
  try
    ignore (Builder.freeze b);
    Alcotest.fail "undriven net should be rejected"
  with Failure _ -> ()

let test_merge () =
  let b = Builder.create lib in
  let stub = Builder.placeholder b "later" in
  let consumer = Builder.add b ~stage ~unit_name:"u" Kind.Inv [| stub |] in
  Builder.output b consumer "out";
  let real = Builder.input b "real" in
  Builder.merge b ~placeholder:stub real;
  let nl = Builder.freeze b in
  (match Netlist.check nl with
  | Ok () -> ()
  | Error es -> Alcotest.failf "check failed: %s" (List.hd es));
  (* The inverter's fanin must now be the real input net. *)
  let inv = nl.Netlist.cells.(0) in
  Alcotest.(check int) "rewired to real net" real inv.Netlist.fanins.(0)

let small_design () =
  let v = Pvtol_vex.Vex_core.build Pvtol_vex.Vex_core.small_config in
  v.Pvtol_vex.Vex_core.netlist

let test_small_core_invariants () =
  let nl = small_design () in
  match Netlist.check nl with
  | Ok () -> ()
  | Error es ->
    Alcotest.failf "%d invariant errors, first: %s" (List.length es) (List.hd es)

let test_stats_by_stage () =
  let nl = small_design () in
  let stats = Netlist.stats_by_stage nl in
  let total_area =
    List.fold_left (fun acc (_, _, a) -> acc +. a) 0.0 stats
  in
  Alcotest.(check bool) "stage areas sum to total" true
    (Float.abs (total_area -. Netlist.area nl) < 1e-6);
  (* The synthesized register file dominates, as in the paper. *)
  let rf = Netlist.area_of_stage nl Stage.Reg_file in
  List.iter
    (fun s ->
      if not (Stage.equal s Stage.Reg_file) then
        Alcotest.(check bool)
          (Printf.sprintf "RF bigger than %s" (Stage.name s))
          true
          (rf > Netlist.area_of_stage nl s))
    Stage.all

let test_flops_and_fanout () =
  let nl = small_design () in
  let flops = Netlist.flops nl in
  Alcotest.(check bool) "has flops" true (Array.length flops > 100);
  Array.iter
    (fun (c : Netlist.cell) ->
      Alcotest.(check bool) "flop is sequential" false (Netlist.is_comb c))
    flops

let test_remap_cells () =
  let nl = small_design () in
  let resized =
    Netlist.remap_cells nl (fun c ->
        Cell.find lib c.Netlist.cell.Cell.kind Cell.X0)
  in
  Alcotest.(check bool) "area shrank" true (Netlist.area resized < Netlist.area nl);
  (match Netlist.check resized with
  | Ok () -> ()
  | Error es -> Alcotest.failf "check failed: %s" (List.hd es));
  try
    ignore
      (Netlist.remap_cells nl (fun _ -> Cell.find lib Kind.Inv Cell.X1));
    Alcotest.fail "kind change should be rejected"
  with Invalid_argument _ -> ()

let test_stage_names () =
  List.iter
    (fun s ->
      match Stage.of_name (Stage.name s) with
      | Some s' -> Alcotest.(check bool) "stage roundtrip" true (Stage.equal s s')
      | None -> Alcotest.failf "stage %s does not parse" (Stage.name s))
    Stage.all

let suite =
  ( "netlist",
    [
      Alcotest.test_case "builder basics" `Quick test_builder_basics;
      Alcotest.test_case "arity error" `Quick test_arity_error;
      Alcotest.test_case "unknown net error" `Quick test_unknown_net_error;
      Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
      Alcotest.test_case "dff loop allowed" `Quick test_dff_loop_allowed;
      Alcotest.test_case "undriven net rejected" `Quick test_undriven_net_rejected;
      Alcotest.test_case "merge placeholder" `Quick test_merge;
      Alcotest.test_case "small core invariants" `Quick test_small_core_invariants;
      Alcotest.test_case "stats by stage" `Quick test_stats_by_stage;
      Alcotest.test_case "flops and fanout" `Quick test_flops_and_fanout;
      Alcotest.test_case "remap cells" `Quick test_remap_cells;
      Alcotest.test_case "stage names" `Quick test_stage_names;
    ] )
