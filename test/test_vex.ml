(* Functional verification of the gate-level datapath generators against
   integer arithmetic, plus structural checks of the assembled core. *)

module Gen = Pvtol_vex.Gen
module Adder = Pvtol_vex.Adder
module Shifter = Pvtol_vex.Shifter
module Multiplier = Pvtol_vex.Multiplier
module Comparator = Pvtol_vex.Comparator
module Alu = Pvtol_vex.Alu
module Logic_cloud = Pvtol_vex.Logic_cloud
module Vex_core = Pvtol_vex.Vex_core
module Netlist = Pvtol_netlist.Netlist
module Stage = Pvtol_netlist.Stage

let mask w v = v land ((1 lsl w) - 1)

(* --- adders --- *)

let adder_dut build w =
  snd
    (Simtool.combinational ~widths:[ w; w ]
       ~build:(fun g -> function
         | [ a; b ] -> fst (build g a b)
         | _ -> assert false)
       ())

let qcheck_adder name build =
  let w = 16 in
  let eval = adder_dut build w in
  QCheck.Test.make ~name ~count:300
    QCheck.(pair (int_bound 65535) (int_bound 65535))
    (fun (a, b) -> eval [ a; b ] = mask w (a + b))

let prop_ripple = qcheck_adder "ripple adds" (fun g a b -> Adder.ripple g a b)
let prop_csel = qcheck_adder "carry-select adds" (fun g a b -> Adder.carry_select g a b)
let prop_ks = qcheck_adder "kogge-stone adds" (fun g a b -> Adder.kogge_stone g a b)

let test_adder_carry_out () =
  let w = 8 in
  let _, eval =
    Simtool.combinational ~widths:[ w; w ]
      ~build:(fun g -> function
        | [ a; b ] ->
          let sum, cout = Adder.kogge_stone g a b in
          Array.append sum [| cout |]
        | _ -> assert false)
      ()
  in
  List.iter
    (fun (a, b) ->
      Alcotest.(check int)
        (Printf.sprintf "%d+%d with carry" a b)
        (a + b)
        (eval [ a; b ]))
    [ (255, 1); (200, 100); (0, 0); (255, 255); (128, 128) ]

let test_incrementer () =
  let w = 8 in
  let _, eval =
    Simtool.combinational ~widths:[ w ]
      ~build:(fun g -> function
        | [ a ] -> Adder.incrementer g a
        | _ -> assert false)
      ()
  in
  for v = 0 to 255 do
    Alcotest.(check int) (Printf.sprintf "inc %d" v) (mask w (v + 1)) (eval [ v ])
  done

(* --- shifter --- *)

let test_fixed_shift () =
  let w = 8 in
  let _, eval =
    Simtool.combinational ~widths:[ w ]
      ~build:(fun g -> function
        | [ a ] -> Shifter.fixed g Shifter.Left 3 a
        | _ -> assert false)
      ()
  in
  Alcotest.(check int) "fixed left 3" (mask w (0b1011 lsl 3)) (eval [ 0b1011 ])

(* --- multiplier --- *)

let prop_multiplier_truncated =
  let w = 12 in
  let _, eval =
    Simtool.combinational ~widths:[ w; w ]
      ~build:(fun g -> function
        | [ a; b ] -> Multiplier.truncated g ~width:w a b
        | _ -> assert false)
      ()
  in
  QCheck.Test.make ~name:"truncated multiplier (low word)" ~count:300
    QCheck.(pair (int_bound 4095) (int_bound 4095))
    (fun (a, b) -> eval [ a; b ] = mask w (a * b))

(* --- comparator --- *)

let sign_extend w v = if v land (1 lsl (w - 1)) <> 0 then v - (1 lsl w) else v

let prop_comparator =
  let w = 8 in
  let _, eval =
    Simtool.combinational ~widths:[ w; w ]
      ~build:(fun g -> function
        | [ a; b ] ->
          let sum, _ = Adder.ripple g a b in
          let f = Comparator.flags g ~alu_result:sum ~a ~b in
          [| f.Comparator.zero; f.Comparator.negative; f.Comparator.equal;
             f.Comparator.less_than |]
        | _ -> assert false)
      ()
  in
  QCheck.Test.make ~name:"comparator flags" ~count:300
    QCheck.(pair (int_bound 255) (int_bound 255))
    (fun (a, b) ->
      let bits = eval [ a; b ] in
      let flag i = (bits lsr i) land 1 = 1 in
      let sum = mask w (a + b) in
      flag 0 = (sum = 0)
      && flag 1 = (sum land 0x80 <> 0)
      && flag 2 = (a = b)
      && flag 3 = (sign_extend w a < sign_extend w b))

(* --- ALU with in-series shifter --- *)

let alu_eval =
  let w = 16 in
  let _, eval =
    Simtool.combinational ~widths:[ w; w; 10 ]
      ~build:(fun g -> function
        | [ a; b; c ] ->
          let op =
            {
              Alu.use_sub = c.(0);
              logic_sel = [| c.(1); c.(2) |];
              shift_dir = c.(3);
              shift_amount = Array.sub c 4 4;
              shift_enable = c.(8);
            }
          in
          fst (Alu.alu_with_shifter g ~op ~a ~b)
        | _ -> assert false)
      ()
  in
  eval

let alu_reference ~a ~b ~sub ~logic ~dir ~amount ~shift_en =
  let w = 16 in
  let core =
    match logic with
    | 0 -> if sub then a - b else a + b
    | 1 -> a land b
    | 2 -> a lor b
    | _ -> a lxor b
  in
  let core = mask w core in
  if not shift_en then core
  else if dir then core lsr amount
  else mask w (core lsl amount)

let prop_alu =
  QCheck.Test.make ~name:"alu+shifter vs reference" ~count:400
    QCheck.(
      tup7 (int_bound 65535) (int_bound 65535) bool (int_bound 3) bool
        (int_bound 15) bool)
    (fun (a, b, sub, logic, dir, amount, shift_en) ->
      (* The shifter consumes operand B's low bits as the amount, so fix
         b's low nibble to the amount when shifting is enabled. *)
      let b = if shift_en then (b land lnot 15) lor amount else b in
      let ctrl =
        (if sub then 1 else 0)
        lor ((logic land 1) lsl 1)
        lor ((logic lsr 1) lsl 2)
        lor ((if dir then 1 else 0) lsl 3)
        lor ((b land 15) lsl 4)
        lor ((if shift_en then 1 else 0) lsl 8)
      in
      let got = alu_eval [ a; b; ctrl ] in
      let sub = sub && logic = 0 in
      got = alu_reference ~a ~b ~sub ~logic ~dir ~amount:(b land 15) ~shift_en)

(* --- logic cloud --- *)

let test_cloud_deterministic () =
  let build seed =
    let g = Gen.create ~design_name:"cloud" ~seed Pvtol_stdcell.Cell.default_library in
    let ins = Gen.inputs g "i" 16 in
    let out =
      Logic_cloud.build g { Logic_cloud.n_gates = 200; depth = 8; n_outputs = 4 } ins
    in
    Gen.outputs g "o" out;
    Netlist.Builder.freeze (Gen.builder g)
  in
  let a = build 5 and b = build 5 and c = build 6 in
  Alcotest.(check int) "same seed same size" (Netlist.cell_count a)
    (Netlist.cell_count b);
  Alcotest.(check bool) "seed changes structure" true
    (Netlist.cell_count a <> Netlist.cell_count c
    ||
    let kinds nl =
      Array.to_list
        (Array.map
           (fun (c : Netlist.cell) -> c.Netlist.cell.Pvtol_stdcell.Cell.kind)
           nl.Netlist.cells)
    in
    kinds a <> kinds c)

(* --- fanout tree --- *)

let test_fanout_tree_bound () =
  let g = Gen.create ~design_name:"fo" ~seed:1 Pvtol_stdcell.Cell.default_library in
  let src = Gen.inputs g "s" 1 in
  let copies = Gen.fanout_tree g ~fanout:8 src.(0) 100 in
  Array.iter (fun c -> Gen.outputs g "o" [| c |]) [| copies.(0) |];
  (* Keep all copies alive through OR reduction so freeze sees no
     dangling nets. *)
  let all = Gen.or_tree g (Array.to_list copies) in
  Gen.outputs g "keep" [| all |];
  let nl = Netlist.Builder.freeze (Gen.builder g) in
  Array.iter
    (fun (net : Netlist.net) ->
      let fo = Array.length net.Netlist.sinks in
      (* Buffer-tree nets stay within the requested bound (the OR
         reduction adds one sink per copy). *)
      Alcotest.(check bool)
        (Printf.sprintf "net %s fanout %d bounded" net.Netlist.net_name fo)
        true (fo <= 9))
    nl.Netlist.nets

(* --- register file, clocked --- *)

let test_regfile_write_then_read () =
  let module Regfile = Pvtol_vex.Regfile in
  let cfg =
    {
      Regfile.n_regs = 8;
      width = 8;
      n_read = 2;
      n_write = 2;
      addr_bits = 3;
      sel_fanout = 8;
    }
  in
  let g =
    Gen.create ~design_name:"rf" ~seed:1 Pvtol_stdcell.Cell.default_library
  in
  let read_addr = Array.init cfg.Regfile.n_read (fun i -> Gen.inputs g (Printf.sprintf "ra%d" i) 3) in
  let write_addr = Array.init cfg.Regfile.n_write (fun i -> Gen.inputs g (Printf.sprintf "wa%d" i) 3) in
  let write_data = Array.init cfg.Regfile.n_write (fun i -> Gen.inputs g (Printf.sprintf "wd%d" i) 8) in
  let write_en = Array.init cfg.Regfile.n_write (fun i -> (Gen.inputs g (Printf.sprintf "we%d" i) 1).(0)) in
  let rf = Regfile.build g cfg ~read_addr ~write_addr ~write_data ~write_en in
  Array.iteri (fun i bus -> Gen.outputs g (Printf.sprintf "rd%d" i) bus) rf.Regfile.read_data;
  let nl = Netlist.Builder.freeze (Gen.builder g) in
  let sim = Simtool.create nl in
  let write p ~addr ~data ~en =
    Simtool.set_bus sim write_addr.(p) addr;
    Simtool.set_bus sim write_data.(p) data;
    Simtool.set_input sim write_en.(p) (en = 1)
  in
  (* Cycle 1: port 0 writes 0xAB to r3, port 1 writes 0x5C to r5. *)
  write 0 ~addr:3 ~data:0xAB ~en:1;
  write 1 ~addr:5 ~data:0x5C ~en:1;
  Simtool.eval_comb sim;
  Simtool.clock_edge sim;
  (* Cycle 2: no writes; read back both registers. *)
  write 0 ~addr:0 ~data:0 ~en:0;
  write 1 ~addr:0 ~data:0 ~en:0;
  Simtool.set_bus sim read_addr.(0) 3;
  Simtool.set_bus sim read_addr.(1) 5;
  Simtool.eval_comb sim;
  Alcotest.(check int) "read r3" 0xAB (Simtool.read_bus sim rf.Regfile.read_data.(0));
  Alcotest.(check int) "read r5" 0x5C (Simtool.read_bus sim rf.Regfile.read_data.(1));
  (* Hold: clocking without write-enable preserves contents. *)
  Simtool.clock_edge sim;
  Simtool.eval_comb sim;
  Alcotest.(check int) "r3 held" 0xAB (Simtool.read_bus sim rf.Regfile.read_data.(0));
  (* Write-port conflict: both ports target r6; the higher port wins. *)
  write 0 ~addr:6 ~data:0x11 ~en:1;
  write 1 ~addr:6 ~data:0x22 ~en:1;
  Simtool.eval_comb sim;
  Simtool.clock_edge sim;
  write 0 ~addr:0 ~data:0 ~en:0;
  write 1 ~addr:0 ~data:0 ~en:0;
  Simtool.set_bus sim read_addr.(0) 6;
  Simtool.eval_comb sim;
  Alcotest.(check int) "conflict: highest port wins" 0x22
    (Simtool.read_bus sim rf.Regfile.read_data.(0))

(* --- assembled cores --- *)

let test_core_builds_all_sizes () =
  List.iter
    (fun cfg ->
      let v = Vex_core.build cfg in
      match Netlist.check v.Vex_core.netlist with
      | Ok () -> ()
      | Error es -> Alcotest.failf "core invariants: %s" (List.hd es))
    [ Vex_core.small_config;
      { Vex_core.small_config with Vex_core.mult_width = 12; decode_depth = 12 } ]

let test_core_deterministic () =
  let a = Vex_core.build Vex_core.small_config in
  let b = Vex_core.build Vex_core.small_config in
  Alcotest.(check int) "same cell count"
    (Netlist.cell_count a.Vex_core.netlist)
    (Netlist.cell_count b.Vex_core.netlist);
  Alcotest.(check int) "same net count"
    (Netlist.net_count a.Vex_core.netlist)
    (Netlist.net_count b.Vex_core.netlist)

let test_capture_classification () =
  let v = Vex_core.build Vex_core.small_config in
  let nl = v.Vex_core.netlist in
  let unclassified = ref 0 in
  Array.iter
    (fun (c : Pvtol_netlist.Netlist.cell) ->
      if not (Netlist.is_comb c) then
        match v.Vex_core.capture_stage c with
        | Some _ -> ()
        | None -> incr unclassified)
    nl.Netlist.cells;
  Alcotest.(check int) "every flop has a capture stage" 0 !unclassified;
  (* Combinational cells are never classified. *)
  let comb =
    Array.to_seq nl.Netlist.cells |> Seq.find (fun c -> Netlist.is_comb c)
  in
  match comb with
  | Some c ->
    Alcotest.(check bool) "comb cell unclassified" true
      (v.Vex_core.capture_stage c = None)
  | None -> Alcotest.fail "no combinational cell?"

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  ( "vex",
    [
      qcheck prop_ripple;
      qcheck prop_csel;
      qcheck prop_ks;
      Alcotest.test_case "adder carry out" `Quick test_adder_carry_out;
      Alcotest.test_case "incrementer exhaustive" `Quick test_incrementer;
      Alcotest.test_case "fixed shift" `Quick test_fixed_shift;
      qcheck prop_multiplier_truncated;
      qcheck prop_comparator;
      qcheck prop_alu;
      Alcotest.test_case "cloud deterministic" `Quick test_cloud_deterministic;
      Alcotest.test_case "fanout tree bound" `Quick test_fanout_tree_bound;
      Alcotest.test_case "regfile write/read/hold/conflict" `Quick
        test_regfile_write_then_read;
      Alcotest.test_case "core builds" `Quick test_core_builds_all_sizes;
      Alcotest.test_case "core deterministic" `Quick test_core_deterministic;
      Alcotest.test_case "capture classification" `Quick test_capture_classification;
    ] )
