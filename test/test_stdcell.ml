(* Tests for Pvtol_stdcell: cell semantics, device models, Liberty. *)

module Kind = Pvtol_stdcell.Kind
module Cell = Pvtol_stdcell.Cell
module Process = Pvtol_stdcell.Process
module Liberty = Pvtol_stdcell.Liberty

let check_approx ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" msg expected actual

(* --- Kind --- *)

let bool_vectors n =
  List.init (1 lsl n) (fun v -> Array.init n (fun i -> (v lsr i) land 1 = 1))

let reference_eval (k : Kind.t) (ins : bool array) =
  match k with
  | Kind.Inv -> not ins.(0)
  | Kind.Buf | Kind.Dff | Kind.Ls -> ins.(0)
  | Kind.Nand2 -> not (ins.(0) && ins.(1))
  | Kind.Nand3 -> not (ins.(0) && ins.(1) && ins.(2))
  | Kind.Nor2 -> not (ins.(0) || ins.(1))
  | Kind.Nor3 -> not (ins.(0) || ins.(1) || ins.(2))
  | Kind.And2 -> ins.(0) && ins.(1)
  | Kind.Or2 -> ins.(0) || ins.(1)
  | Kind.Xor2 -> ins.(0) <> ins.(1)
  | Kind.Xnor2 -> ins.(0) = ins.(1)
  | Kind.Aoi21 -> not ((ins.(0) && ins.(1)) || ins.(2))
  | Kind.Oai21 -> not ((ins.(0) || ins.(1)) && ins.(2))
  | Kind.Mux2 -> if ins.(2) then ins.(1) else ins.(0)
  | Kind.Tiehi -> true
  | Kind.Tielo -> false

let test_kind_truth_tables () =
  List.iter
    (fun k ->
      List.iter
        (fun ins ->
          Alcotest.(check bool)
            (Printf.sprintf "%s truth table" (Kind.name k))
            (reference_eval k ins) (Kind.eval k ins))
        (bool_vectors (Kind.arity k));
      (* [eval3] ignores the pins past the kind's arity. *)
      List.iter
        (fun v ->
          Alcotest.(check bool)
            (Printf.sprintf "%s eval3" (Kind.name k))
            (reference_eval k (Array.sub v 0 (Kind.arity k)))
            (Kind.eval3 k v.(0) v.(1) v.(2)))
        (bool_vectors 3))
    Kind.all

let test_kind_arity_mismatch () =
  Alcotest.check_raises "arity mismatch rejected"
    (Invalid_argument "Kind.eval: arity mismatch") (fun () ->
      ignore (Kind.eval Kind.Nand2 [| true |]))

let test_kind_names_roundtrip () =
  List.iter
    (fun k ->
      match Kind.of_name (Kind.name k) with
      | Some k' -> Alcotest.(check bool) "name roundtrip" true (k = k')
      | None -> Alcotest.failf "name %s does not parse" (Kind.name k))
    Kind.all;
  Alcotest.(check bool) "unknown name" true (Kind.of_name "FOO" = None)

(* --- Process models --- *)

let p = Process.default

let test_delay_scale_normalized () =
  check_approx "unity at nominal corner" 1.0
    (Process.delay_scale p ~vdd:p.Process.vdd_low ~lgate_nm:p.Process.l_nominal_nm)

let test_delay_monotone_in_lgate () =
  let prev = ref 0.0 in
  List.iter
    (fun lg ->
      let d = Process.delay_scale p ~vdd:1.0 ~lgate_nm:lg in
      if d <= !prev then Alcotest.failf "delay not increasing at Lgate %.1f" lg;
      prev := d)
    [ 58.0; 61.0; 63.0; 65.0; 67.0; 69.0; 72.0 ]

let test_delay_monotone_in_vdd () =
  let d_low = Process.delay_scale p ~vdd:1.0 ~lgate_nm:65.0 in
  let d_mid = Process.delay_scale p ~vdd:1.1 ~lgate_nm:65.0 in
  let d_high = Process.delay_scale p ~vdd:1.2 ~lgate_nm:65.0 in
  Alcotest.(check bool) "higher vdd is faster" true (d_high < d_mid && d_mid < d_low)

let test_speedup_band () =
  let s = Process.speedup_high_vdd p in
  (* The 1.0 -> 1.2V boost on a high-Vth LP process buys 10-25%. *)
  Alcotest.(check bool) "speedup plausible" true (s > 1.10 && s < 1.25)

let test_vth_dibl_direction () =
  (* Shorter channel -> lower Vth (DIBL); higher Vdd -> lower Vth. *)
  let vth_nom = Process.vth_eff p ~vdd:1.0 ~lgate_nm:65.0 in
  let vth_short = Process.vth_eff p ~vdd:1.0 ~lgate_nm:60.0 in
  let vth_high = Process.vth_eff p ~vdd:1.2 ~lgate_nm:65.0 in
  Alcotest.(check bool) "short channel lowers vth" true (vth_short < vth_nom);
  Alcotest.(check bool) "high vdd lowers vth" true (vth_high < vth_nom)

let test_leakage_scale () =
  check_approx "unity at nominal" 1.0
    (Process.leakage_scale p ~vdd:1.0 ~lgate_nm:65.0);
  let at_high = Process.leakage_scale p ~vdd:1.2 ~lgate_nm:65.0 in
  Alcotest.(check bool) "high vdd leaks more" true (at_high > 1.3 && at_high < 2.0);
  let short = Process.leakage_scale p ~vdd:1.0 ~lgate_nm:60.0 in
  Alcotest.(check bool) "short channel leaks more" true (short > 1.0)

let test_paper_literal_dibl_negligible () =
  let lit = Process.paper_literal in
  let vth = Process.vth_eff lit ~vdd:1.0 ~lgate_nm:65.0 in
  (* With alpha_dibl = 0.15/nm the DIBL term is ~60 uV. *)
  Alcotest.(check bool) "literal Eq. 4 DIBL is tiny" true
    (Float.abs (vth -. lit.Process.vth0) < 1e-3)

(* --- Cell library --- *)

let lib = Cell.default_library

let test_drive_ordering () =
  let inv d = Cell.find lib Kind.Inv d in
  let x0 = inv Cell.X0 and x1 = inv Cell.X1 and x4 = inv Cell.X4 in
  Alcotest.(check bool) "res decreases with drive" true
    (x0.Cell.drive_res > x1.Cell.drive_res && x1.Cell.drive_res > x4.Cell.drive_res);
  Alcotest.(check bool) "area grows with drive" true
    (x0.Cell.area < x1.Cell.area && x1.Cell.area < x4.Cell.area);
  Alcotest.(check bool) "cap grows with drive" true
    (x0.Cell.input_cap < x4.Cell.input_cap);
  Alcotest.(check bool) "leak grows with drive" true (x0.Cell.leak < x4.Cell.leak)

let test_every_kind_every_drive_present () =
  List.iter
    (fun k ->
      List.iter
        (fun d ->
          let c = Cell.find lib k d in
          Alcotest.(check bool) "area positive" true (c.Cell.area > 0.0))
        [ Cell.X0; Cell.X1; Cell.X2; Cell.X4 ])
    Kind.all

let test_delay_load_dependence () =
  let nand = Cell.find lib Kind.Nand2 Cell.X1 in
  let d0 = Cell.delay lib nand ~vdd:1.0 ~lgate_nm:65.0 ~load_ff:0.0 in
  let d10 = Cell.delay lib nand ~vdd:1.0 ~lgate_nm:65.0 ~load_ff:10.0 in
  check_approx ~eps:1e-12 "no-load delay = d0" nand.Cell.d0 d0;
  check_approx ~eps:1e-9 "load slope" (nand.Cell.drive_res *. 10.0) (d10 -. d0)

let test_switching_energy_scales_with_vdd () =
  let c = Cell.find lib Kind.Buf Cell.X1 in
  let e1 = Cell.switching_energy_fj lib c ~vdd:1.0 ~load_ff:5.0 in
  let e2 = Cell.switching_energy_fj lib c ~vdd:1.2 ~load_ff:5.0 in
  check_approx ~eps:1e-9 "quadratic vdd scaling" (e1 *. 1.44) e2

(* --- Liberty --- *)

let test_liberty_roundtrip () =
  let text = Liberty.to_string lib in
  let lib2 = Liberty.of_string text in
  Alcotest.(check string) "name" lib.Cell.name lib2.Cell.name;
  Alcotest.(check int) "cell count" (List.length lib.Cell.cells)
    (List.length lib2.Cell.cells);
  List.iter2
    (fun (a : Cell.t) (b : Cell.t) ->
      Alcotest.(check string) "cell name" (Cell.cell_name a) (Cell.cell_name b);
      check_approx "area" a.Cell.area b.Cell.area;
      check_approx "cap" a.Cell.input_cap b.Cell.input_cap;
      check_approx "d0" a.Cell.d0 b.Cell.d0;
      check_approx "res" a.Cell.drive_res b.Cell.drive_res;
      check_approx "eint" a.Cell.e_internal b.Cell.e_internal;
      check_approx "leak" a.Cell.leak b.Cell.leak)
    lib.Cell.cells lib2.Cell.cells;
  check_approx "vth0" lib.Cell.process.Process.vth0 lib2.Cell.process.Process.vth0;
  check_approx "wire cap" lib.Cell.wire_cap_per_um lib2.Cell.wire_cap_per_um

let test_liberty_comments_and_errors () =
  let text = "// header comment\n" ^ Liberty.to_string lib in
  ignore (Liberty.of_string text);
  (try
     ignore (Liberty.of_string "library (x) { cell (NAND2_X1) { area : 1; } }");
     Alcotest.fail "missing attributes should fail"
   with Liberty.Parse_error _ -> ());
  try
    ignore (Liberty.of_string "nonsense");
    Alcotest.fail "garbage should fail"
  with Liberty.Parse_error _ -> ()

let suite =
  ( "stdcell",
    [
      Alcotest.test_case "kind truth tables" `Quick test_kind_truth_tables;
      Alcotest.test_case "kind arity mismatch" `Quick test_kind_arity_mismatch;
      Alcotest.test_case "kind name roundtrip" `Quick test_kind_names_roundtrip;
      Alcotest.test_case "delay scale normalized" `Quick test_delay_scale_normalized;
      Alcotest.test_case "delay monotone in lgate" `Quick test_delay_monotone_in_lgate;
      Alcotest.test_case "delay monotone in vdd" `Quick test_delay_monotone_in_vdd;
      Alcotest.test_case "speedup band" `Quick test_speedup_band;
      Alcotest.test_case "dibl direction" `Quick test_vth_dibl_direction;
      Alcotest.test_case "leakage scale" `Quick test_leakage_scale;
      Alcotest.test_case "paper-literal dibl" `Quick test_paper_literal_dibl_negligible;
      Alcotest.test_case "drive ordering" `Quick test_drive_ordering;
      Alcotest.test_case "library completeness" `Quick test_every_kind_every_drive_present;
      Alcotest.test_case "delay load dependence" `Quick test_delay_load_dependence;
      Alcotest.test_case "switching energy vdd^2" `Quick
        test_switching_energy_scales_with_vdd;
      Alcotest.test_case "liberty roundtrip" `Quick test_liberty_roundtrip;
      Alcotest.test_case "liberty errors" `Quick test_liberty_comments_and_errors;
    ] )
