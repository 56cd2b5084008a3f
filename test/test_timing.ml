(* Tests for the STA engine, path extraction, SDF interchange and the
   sizing passes. *)

open Pvtol_netlist
module Builder = Netlist.Builder
module Kind = Pvtol_stdcell.Kind
module Cell = Pvtol_stdcell.Cell
module Sta = Pvtol_timing.Sta
module Paths = Pvtol_timing.Paths
module Sdf = Pvtol_timing.Sdf
module Sizing = Pvtol_timing.Sizing

let lib = Cell.default_library
let stage = Stage.Execute
let no_wire _ = 0.0
let capture_all (c : Netlist.cell) =
  if Kind.is_sequential c.Netlist.cell.Cell.kind then Some Stage.Execute else None

(* A hand-built chain: DFF -> inv -> inv -> inv -> DFF. *)
let chain_netlist n_invs =
  let b = Builder.create ~design_name:"chain" lib in
  let stub = Builder.placeholder b "d0" in
  let q = Builder.add b ~stage ~unit_name:"launch" Kind.Dff [| stub |] in
  let rec invs net k =
    if k = 0 then net
    else invs (Builder.add b ~stage ~unit_name:"chain" Kind.Inv [| net |]) (k - 1)
  in
  let last = invs q n_invs in
  let q2 = Builder.add b ~stage ~unit_name:"capture" Kind.Dff [| last |] in
  (* Tie the launch flop's D to the capture flop's Q to close the loop. *)
  (match Builder.driver_of b q with
  | Some cell -> Builder.rewire b ~cell ~pin:0 q2
  | None -> assert false);
  Builder.freeze b

let test_sta_chain_arithmetic () =
  let nl = chain_netlist 3 in
  let sta = Sta.build nl ~wire_length:no_wire ~capture:capture_all in
  let delays = Sta.nominal_delays sta in
  let r = Sta.analyze sta ~delays in
  (* Expected: clk->q of launch + 3 inverter delays + setup; compute the
     same quantity from the per-cell delays. *)
  let launch = nl.Netlist.cells.(0) in
  let expected =
    delays.(launch.Netlist.id)
    +. delays.(1) +. delays.(2) +. delays.(3)
    +. lib.Cell.setup
  in
  Alcotest.(check bool) "worst = chain sum" true
    (Float.abs (r.Sta.worst -. expected) < 1e-9);
  (* Only one capture stage. *)
  Alcotest.(check int) "one stage entry" 1 (List.length r.Sta.stage_worst)

let test_sta_uses_max_path () =
  (* Two parallel paths of different depth into the same flop. *)
  let b = Builder.create lib in
  let stub = Builder.placeholder b "d" in
  let q = Builder.add b ~stage ~unit_name:"l" Kind.Dff [| stub |] in
  let short = Builder.add b ~stage ~unit_name:"u" Kind.Inv [| q |] in
  let deep1 = Builder.add b ~stage ~unit_name:"u" Kind.Inv [| q |] in
  let deep2 = Builder.add b ~stage ~unit_name:"u" Kind.Inv [| deep1 |] in
  let deep3 = Builder.add b ~stage ~unit_name:"u" Kind.Inv [| deep2 |] in
  let join = Builder.add b ~stage ~unit_name:"u" Kind.Nand2 [| short; deep3 |] in
  let q2 = Builder.add b ~stage ~unit_name:"c" Kind.Dff [| join |] in
  (match Builder.driver_of b q with
  | Some cell -> Builder.rewire b ~cell ~pin:0 q2
  | None -> assert false);
  let nl = Builder.freeze b in
  let sta = Sta.build nl ~wire_length:no_wire ~capture:capture_all in
  let delays = Sta.nominal_delays sta in
  let r = Sta.analyze sta ~delays in
  (* Trace must follow the deep branch: 1 launch + 3 inv + nand + capture. *)
  match Paths.critical sta ~delays r with
  | Some path ->
    Alcotest.(check int) "deep path hop count" 5 (List.length path.Paths.hops);
    (* Hop arrivals are non-decreasing. *)
    let rec monotone = function
      | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "arrivals non-decreasing" true
          (a.Paths.arrival_out <= b.Paths.arrival_out +. 1e-12);
        monotone rest
      | _ -> ()
    in
    monotone path.Paths.hops
  | None -> Alcotest.fail "critical path expected"

let test_delay_monotonicity =
  QCheck.Test.make ~name:"increasing any cell delay never reduces worst"
    ~count:50 (QCheck.int_bound 1000)
    (fun cell_pick ->
      let nl = chain_netlist 5 in
      let sta = Sta.build nl ~wire_length:no_wire ~capture:capture_all in
      let delays = Sta.nominal_delays sta in
      let r0 = Sta.analyze sta ~delays in
      let i = cell_pick mod Netlist.cell_count nl in
      delays.(i) <- delays.(i) +. 0.5;
      let r1 = Sta.analyze sta ~delays in
      r1.Sta.worst >= r0.Sta.worst -. 1e-12)

let small_sta =
  lazy
    (let v = Pvtol_vex.Vex_core.build Pvtol_vex.Vex_core.small_config in
     let nl = v.Pvtol_vex.Vex_core.netlist in
     let fp = Pvtol_place.Floorplan.create ~cell_area:(Netlist.area nl) () in
     let p = Pvtol_place.Placer.place nl fp in
     let wire nid = Pvtol_place.Placement.wire_length p nid in
     (v, nl, wire, Sta.build nl ~wire_length:wire ~capture:v.Pvtol_vex.Vex_core.capture_stage))

let test_required_consistency () =
  let _, _, _, sta = Lazy.force small_sta in
  let delays = Sta.nominal_delays sta in
  let r = Sta.analyze sta ~delays in
  let clock = r.Sta.worst in
  let req = Sta.required sta ~delays ~clock in
  (* At the clock = worst delay, every net slack is >= 0 and the worst
     endpoint's D-net slack is ~0. *)
  let min_slack = ref infinity in
  Array.iteri
    (fun nid a ->
      if Float.is_finite req.(nid) then begin
        let s = req.(nid) -. a in
        if s < !min_slack then min_slack := s
      end)
    r.Sta.arrival;
  Alcotest.(check bool) "no negative slack at clock=worst" true (!min_slack >= -1e-9);
  Alcotest.(check bool) "critical net slack ~ 0" true (!min_slack < 1e-6)

let test_stage_worst_bounds_global () =
  let _, _, _, sta = Lazy.force small_sta in
  let delays = Sta.nominal_delays sta in
  let r = Sta.analyze sta ~delays in
  let max_stage =
    List.fold_left (fun acc (_, d, _) -> Float.max acc d) 0.0 r.Sta.stage_worst
  in
  Alcotest.(check bool) "max over stages = global worst" true
    (Float.abs (max_stage -. r.Sta.worst) < 1e-9)

let test_vdd_scaling_speeds_up () =
  let _, nl, _, sta = Lazy.force small_sta in
  let delays = Sta.nominal_delays sta in
  let r0 = Sta.analyze sta ~delays in
  let p = nl.Netlist.lib.Cell.process in
  let s =
    Pvtol_stdcell.Process.delay_scale p ~vdd:p.Pvtol_stdcell.Process.vdd_high
      ~lgate_nm:p.Pvtol_stdcell.Process.l_nominal_nm
  in
  let fast = Sta.scaled_delays sta ~scale:(fun _ -> s) in
  let r1 = Sta.analyze sta ~delays:fast in
  Alcotest.(check bool) "high vdd strictly faster" true (r1.Sta.worst < r0.Sta.worst)

(* --- SDF --- *)

let test_sdf_roundtrip () =
  let _, nl, _, sta = Lazy.force small_sta in
  let delays = Sta.nominal_delays sta in
  let text = Sdf.to_string nl ~delays in
  let back = Sdf.of_string nl text in
  let max_err = ref 0.0 in
  Array.iteri
    (fun i d -> max_err := Float.max !max_err (Float.abs (d -. back.(i))))
    delays;
  Alcotest.(check bool) "delays survive (ps precision)" true (!max_err < 1e-5)

let test_sdf_rewrite () =
  let nl = chain_netlist 2 in
  let sta = Sta.build nl ~wire_length:no_wire ~capture:capture_all in
  let delays = Sta.nominal_delays sta in
  let text = Sdf.to_string nl ~delays in
  let doubled = Sdf.rewrite nl text ~f:(fun _ d -> d *. 2.0) in
  let back = Sdf.of_string nl doubled in
  Array.iteri
    (fun i d ->
      Alcotest.(check bool) "doubled" true (Float.abs (back.(i) -. (2.0 *. d)) < 1e-5))
    delays

let test_sdf_errors () =
  let nl = chain_netlist 1 in
  (try
     ignore (Sdf.of_string nl "(DELAYFILE)");
     Alcotest.fail "missing delays should fail"
   with Sdf.Parse_error _ -> ());
  try
    ignore
      (Sdf.of_string nl
         "(CELL (CELLTYPE \"INV_X1\") (INSTANCE nosuch) (DELAY (ABSOLUTE (IOPATH i o (0.1)))))");
    Alcotest.fail "unknown instance should fail"
  with Sdf.Parse_error _ -> ()

let test_worst_endpoints_sorted () =
  let _, _, _, sta = Lazy.force small_sta in
  let delays = Sta.nominal_delays sta in
  let r = Sta.analyze sta ~delays in
  let eps = Paths.worst_endpoints sta r ~k:10 in
  Alcotest.(check int) "k endpoints" 10 (List.length eps);
  let rec sorted = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted slowest first" true (sorted eps);
  Alcotest.(check bool) "head is the worst" true
    (Float.abs (snd (List.hd eps) -. r.Sta.worst) < 1e-9)

(* --- clock tree + skew-aware STA --- *)

let test_uniform_skew_is_invisible () =
  let _, _, _, sta = Lazy.force small_sta in
  let delays = Sta.nominal_delays sta in
  let r0 = Sta.analyze sta ~delays in
  let r1 = Sta.analyze ~skew:(fun _ -> 0.3) sta ~delays in
  (* Shifting every clock edge equally changes no reg-to-reg path. *)
  Alcotest.(check bool) "uniform skew cancels" true
    (Float.abs (r0.Sta.worst -. r1.Sta.worst) < 1e-9)

let test_capture_skew_relaxes_endpoint () =
  (* Long chain so the chain path dominates even after relaxation (the
     skewed flop's own launch path through the feedback also grows by
     the same amount). *)
  let nl = chain_netlist 12 in
  let capture_id = Netlist.cell_count nl - 1 in
  let sta = Sta.build nl ~wire_length:no_wire ~capture:capture_all in
  let delays = Sta.nominal_delays sta in
  let r0 = Sta.analyze sta ~delays in
  let skew cid = if cid = capture_id then 0.05 else 0.0 in
  let r1 = Sta.analyze ~skew sta ~delays in
  Alcotest.(check bool) "late capture relaxes" true
    (Float.abs (r1.Sta.worst -. (r0.Sta.worst -. 0.05)) < 1e-9)

let test_clock_tree () =
  let module CT = Pvtol_timing.Clock_tree in
  let _, _, _, sta = Lazy.force small_sta in
  let v, _, _, _ = Lazy.force small_sta in
  ignore v;
  let flops = Sta.flop_ids sta in
  let p =
    (* Rebuild the placement used by small_sta. *)
    let _, nl, _, _ = Lazy.force small_sta in
    let fp = Pvtol_place.Floorplan.create ~cell_area:(Netlist.area nl) () in
    Pvtol_place.Placer.place nl fp
  in
  let ct = CT.synthesize p ~flops in
  Alcotest.(check int) "every flop served" (Array.length flops)
    (List.length ct.CT.insertion_delay);
  Alcotest.(check bool) "has buffers" true (ct.CT.n_buffers > 0);
  Alcotest.(check bool) "positive wirelength" true (ct.CT.wirelength > 0.0);
  Alcotest.(check bool) "skew nonnegative" true (ct.CT.skew >= 0.0);
  List.iter
    (fun (_, d) -> Alcotest.(check bool) "insertion delay positive" true (d > 0.0))
    ct.CT.insertion_delay;
  (* skew_of is normalized to min 0. *)
  let f = CT.skew_of ct in
  let mn =
    Array.fold_left (fun a cid -> Float.min a (f cid)) infinity flops
  in
  Alcotest.(check bool) "normalized offsets" true (Float.abs mn < 1e-12);
  (* Deterministic. *)
  let ct2 = CT.synthesize p ~flops in
  Alcotest.(check bool) "deterministic" true
    (ct.CT.skew = ct2.CT.skew && ct.CT.n_buffers = ct2.CT.n_buffers);
  (* The skew is small relative to the cycle: the ideal-clock
     assumption of the main flow holds. *)
  let r = Sta.analyze sta ~delays:(Sta.nominal_delays sta) in
  Alcotest.(check bool) "skew below 10% of clock" true
    (ct.CT.skew < 0.1 *. r.Sta.worst)

let qcheck = QCheck_alcotest.to_alcotest

let test_analyze_into_matches_analyze () =
  (* analyze_into on a reused workspace must be bit-identical to the
     allocating analyze, across successive delay vectors. *)
  let nl = chain_netlist 4 in
  let sta = Sta.build nl ~wire_length:(fun _ -> 7.5) ~capture:capture_all in
  let ws = Sta.workspace sta in
  List.iter
    (fun scale ->
      let delays = Sta.scaled_delays sta ~scale:(fun _ -> scale) in
      let r = Sta.analyze sta ~delays in
      Sta.analyze_into sta ws ~delays;
      Alcotest.(check bool) "worst equal" true (Sta.ws_worst ws 0 = r.Sta.worst);
      Alcotest.(check int) "worst endpoint equal" r.Sta.worst_endpoint
        (Sta.ws_worst_endpoint ws 0);
      List.iter
        (fun (s, d, _) ->
          Alcotest.(check bool)
            (Stage.name s ^ " stage delay equal")
            true
            (Sta.ws_stage_delay ws s 0 = Some d))
        r.Sta.stage_worst;
      Array.iter
        (fun cid ->
          Alcotest.(check bool) "endpoint delay equal" true
            (Sta.ws_endpoint_delay ws cid 0 = r.Sta.endpoint_delay.(cid)))
        (Sta.flop_ids sta))
    [ 1.0; 1.3; 0.8 ]

(* A more interesting graph than the chain for the lane and
   incremental equivalence tests: the small VEX core, with
   reconvergence and several capture stages. *)
let vex_sta =
  lazy
    (let v = Pvtol_vex.Vex_core.build Pvtol_vex.Vex_core.small_config in
     let nl = v.Pvtol_vex.Vex_core.netlist in
     (nl, Sta.build nl ~wire_length:(fun _ -> 5.0)
            ~capture:v.Pvtol_vex.Vex_core.capture_stage))

let all_stages = [ Stage.Fetch; Stage.Decode; Stage.Execute; Stage.Writeback ]

(* Deterministic per-(cell, lane) delay wiggle. *)
let wiggled base i lane =
  base.(i) *. (1.0 +. (0.1 *. sin (float_of_int ((i * 7) + (lane * 131)))))

(* The clock skews of the equivalence tests, per lane and flop: the
   ideal clock, per-flop offsets that move every flop's launch and
   capture edges by different amounts, and offsets that differ from
   lane to lane as well (the skew settle prices one tune state per
   lane). *)
let skews =
  [ ("zero skew", fun (_ : int) (_ : int) -> 0.0);
    ("skewed", fun _ cid -> 0.013 *. float_of_int ((cid * 5) mod 11));
    ( "skewed per lane",
      fun k cid -> 0.011 *. float_of_int (((cid * 5) + (k * 3)) mod 13) ) ]

let set_skew_row sta ws k skew =
  let row = Sta.skew_row ws k in
  Array.iteri (fun slot cid -> row.(slot) <- skew cid) (Sta.flop_ids sta)

(* Lane [lane] of a kernel workspace against a scalar oracle pass, bit
   for bit: worst delay and endpoint, every stage, every cell's
   endpoint delay (0 for combinational cells). *)
let check_lane_matches_oracle label sta ws lane o =
  let bits = Int64.bits_of_float in
  if bits (Sta.ws_worst ws lane) <> bits (Sta_oracle.ws_worst o) then
    Alcotest.failf "%s: worst %h vs oracle %h" label (Sta.ws_worst ws lane)
      (Sta_oracle.ws_worst o);
  Alcotest.(check int)
    (label ^ ": worst endpoint")
    (Sta_oracle.ws_worst_endpoint o)
    (Sta.ws_worst_endpoint ws lane);
  List.iter
    (fun s ->
      match (Sta.ws_stage_delay ws s lane, Sta_oracle.ws_stage_delay o s) with
      | None, None -> ()
      | Some a, Some b when bits a = bits b -> ()
      | _ -> Alcotest.failf "%s: %s delay differs" label (Stage.name s))
    all_stages;
  for cid = 0 to Netlist.cell_count (Sta.netlist sta) - 1 do
    if bits (Sta.ws_endpoint_delay ws cid lane)
       <> bits (Sta_oracle.ws_endpoint_delay o cid)
    then Alcotest.failf "%s: endpoint %d differs" label cid
  done

let test_analyze_batch_matches_scalar () =
  (* Every lane of the lane-strided kernel must be bit-identical to the
     scalar oracle pass over that lane's delay column and skew row, with
     zero skew rows, one non-zero row in every lane and a different row
     per lane: a 1-lane workspace, 1-4 lanes of a 4-lane one (1-3 a
     partial block in the 4-wide body), a partial block (5 lanes of
     stride 8), and 1-9, 31 and 32 lanes of a 32-lane workspace —
     below, at and past the 4-lane blocks, with every remainder.  The
     unused lane columns of the delays hold nan and the unused skew
     rows a huge offset, which the extra lanes of a rounded-up block
     compute on and no lane in use may see. *)
  let _, sta = Lazy.force vex_sta in
  let base = Sta.nominal_delays sta in
  let n = Array.length base in
  let o = Sta_oracle.workspace sta in
  let column = Array.make n 0.0 in
  List.iter
    (fun (stride, lanes) ->
      let ws = Sta.workspace ~lanes:stride sta in
      let block = Array.make (n * stride) nan in
      for i = 0 to n - 1 do
        for k = 0 to lanes - 1 do
          block.((i * stride) + k) <- wiggled base i k
        done
      done;
      List.iter
        (fun (skew_label, skew) ->
          for k = 0 to stride - 1 do
            set_skew_row sta ws k (if k < lanes then skew k else fun _ -> 1e9)
          done;
          if lanes = stride then Sta.analyze_into sta ws ~delays:block
          else Sta.analyze_into ~lanes sta ws ~delays:block;
          for k = 0 to lanes - 1 do
            for i = 0 to n - 1 do
              column.(i) <- wiggled base i k
            done;
            Sta_oracle.analyze_into ~skew:(skew k) o ~delays:column;
            check_lane_matches_oracle
              (Printf.sprintf "%d of %d lanes, lane %d, %s" lanes stride k
                 skew_label)
              sta ws k o
          done)
        skews)
    ([ (1, 1); (4, 1); (4, 2); (4, 3); (4, 4); (8, 5) ]
    @ List.map (fun lanes -> (32, lanes)) [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 31; 32 ])

(* --- one timing graph per sizing run --- *)

let same_bits label a b =
  if Array.length a <> Array.length b then Alcotest.failf "%s: length differs" label;
  Array.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then
        Alcotest.failf "%s: index %d differs (%h vs %h)" label i x b.(i))
    a

(* The view's committed state against a fresh build of the re-driven
   netlist: loads, delays, arrivals, endpoint results and required
   times, bit for bit. *)
let check_view_equals_build label view ~fresh =
  let nl = Sta.netlist fresh in
  let delays = Sta.nominal_delays fresh in
  same_bits (label ^ ": nominal delays") (Sta.nominal_delays (Sta.freeze view)) delays;
  same_bits (label ^ ": net loads")
    (Array.init (Netlist.net_count nl) (Sta.view_load view))
    (Array.init (Netlist.net_count nl) (Sta.net_load fresh));
  let r = Sta.analyze fresh ~delays in
  let ws = Sta.analyze_view view in
  same_bits (label ^ ": arrivals")
    (Array.init (Netlist.net_count nl) (fun nid -> Sta.ws_arrival ws nid 0))
    r.Sta.arrival;
  same_bits (label ^ ": endpoint delays")
    (Array.init (Netlist.cell_count nl) (fun cid -> Sta.ws_endpoint_delay ws cid 0))
    r.Sta.endpoint_delay;
  same_bits (label ^ ": worst") [| Sta.ws_worst ws 0 |] [| r.Sta.worst |];
  Alcotest.(check int) (label ^ ": worst endpoint") r.Sta.worst_endpoint
    (Sta.ws_worst_endpoint ws 0);
  List.iter
    (fun (s, d, _) ->
      match Sta.ws_stage_delay ws s 0 with
      | Some d' -> same_bits (label ^ ": stage worst") [| d' |] [| d |]
      | None -> Alcotest.failf "%s: stage without endpoints" label)
    r.Sta.stage_worst;
  let endpoint_required = function
    | Some s -> r.Sta.worst *. Sizing.balanced_fracs s
    | None -> r.Sta.worst
  in
  same_bits (label ^ ": required")
    (Array.copy (Sta.required_view view ~endpoint_required))
    (Sta.required_with fresh ~delays ~endpoint_required)

let drives = [| Cell.X0; Cell.X1; Cell.X2; Cell.X4 |]

(* The re-driven netlist a view stands for. *)
let view_netlist nl view =
  Netlist.remap_cells nl (fun c -> Sta.master view c.Netlist.id)

let test_view_matches_build () =
  let v, nl, wire, sta = Lazy.force small_sta in
  let capture = v.Pvtol_vex.Vex_core.capture_stage in
  let view = Sta.view sta in
  Alcotest.(check bool) "unchanged view freezes to its graph" true
    (Sta.freeze view == sta);
  let rng = Random.State.make [| 14 |] in
  (* Chained rounds, like a sizing run: each round re-drives a random
     tenth of the cells and commits. *)
  for round = 1 to 4 do
    Array.iter
      (fun (c : Netlist.cell) ->
        if Random.State.int rng 10 = 0 then
          Sta.set_master view c.Netlist.id
            (Cell.find lib (Sta.master view c.Netlist.id).Cell.kind
               drives.(Random.State.int rng (Array.length drives))))
      nl.Netlist.cells;
    Sta.commit view;
    let fresh = Sta.build (view_netlist nl view) ~wire_length:wire ~capture in
    check_view_equals_build (Printf.sprintf "round %d" round) view ~fresh;
    Alcotest.(check bool) (Printf.sprintf "round %d: frozen netlist" round) true
      (Marshal.to_string (Sta.netlist (Sta.freeze view)) []
      = Marshal.to_string (Sta.netlist fresh) [])
  done

(* Random re-drive sequences: a few rounds of random re-drives of a few
   cells each (a cell may be re-driven twice in a round, or back to its
   master), committed round by round. *)
let test_view_redrive_sequences =
  QCheck.Test.make ~name:"view commits = fresh build (random re-drives)" ~count:12
    QCheck.(list_of_size Gen.(int_range 1 4)
              (list_of_size Gen.(int_range 0 40) (pair small_nat (int_bound 3))))
    (fun rounds ->
      let v, nl, wire, sta = Lazy.force small_sta in
      let capture = v.Pvtol_vex.Vex_core.capture_stage in
      let n = Netlist.cell_count nl in
      let view = Sta.view sta in
      List.iteri
        (fun round redrives ->
          List.iter
            (fun (k, d) ->
              (* Spread small ints over the whole netlist. *)
              let cid = k * 7919 mod n in
              Sta.set_master view cid
                (Cell.find lib (Sta.master view cid).Cell.kind drives.(d)))
            redrives;
          Sta.commit view;
          check_view_equals_build (Printf.sprintf "round %d" round) view
            ~fresh:(Sta.build (view_netlist nl view) ~wire_length:wire ~capture))
        rounds;
      true)

let test_set_master_rejects_kind_change () =
  let _, nl, _, sta = Lazy.force small_sta in
  let view = Sta.view sta in
  let cid = 0 in
  let kind = nl.Netlist.cells.(cid).Netlist.cell.Cell.kind in
  let other = if kind = Kind.Inv then Kind.Buf else Kind.Inv in
  (match Sta.set_master view cid (Cell.find lib other Cell.X1) with
  | () -> Alcotest.fail "set_master accepted a kind change"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "master unchanged" true
    (Sta.master view cid == nl.Netlist.cells.(cid).Netlist.cell);
  Alcotest.(check bool) "nothing staged" true (Sta.freeze view == sta)

(* --- sizing --- *)

(* The sizing stage's initial clock: the execute stage's nominal delay. *)
let execute_clock sta =
  let r = Sta.analyze sta ~delays:(Sta.nominal_delays sta) in
  match Sta.stage_delay r Stage.Execute with Some d -> d | None -> r.Sta.worst

(* A sizing report's graph is its sized netlist's graph: bit-identical
   to a fresh build of that netlist, which is returned. *)
let check_report_graph label (rep : Sizing.report) =
  let v, _, wire, _ = Lazy.force small_sta in
  let fresh =
    Sta.build (Sta.netlist rep.Sizing.sta) ~wire_length:wire
      ~capture:v.Pvtol_vex.Vex_core.capture_stage
  in
  check_view_equals_build label (Sta.view rep.Sizing.sta) ~fresh;
  fresh

let check_budgets ~clock sta =
  let r = Sta.analyze sta ~delays:(Sta.nominal_delays sta) in
  List.iter
    (fun (s, d, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s within budget" (Stage.name s))
        true
        (d <= (clock *. Sizing.balanced_fracs s) +. 1e-9))
    r.Sta.stage_worst

(* A chain plus an inverter whose output reaches no endpoint (infinite
   slack): [fit]'s recovery downsizes it only in a round that has a
   counted downsize.  With every timed cell at X0 no round has one, so
   the dangling X4 survives; with the chain at X2 and a loose clock it
   drops along with the chain. *)
let dangling_netlist chain_drive =
  let b = Builder.create ~design_name:"dangling" lib in
  let stub = Builder.placeholder b "d0" in
  let q = Builder.add b ~drive:chain_drive ~stage ~unit_name:"launch" Kind.Dff [| stub |] in
  let rec invs net k =
    if k = 0 then net
    else
      invs (Builder.add b ~drive:chain_drive ~stage ~unit_name:"chain" Kind.Inv [| net |])
        (k - 1)
  in
  let last = invs q 4 in
  let q2 = Builder.add b ~drive:chain_drive ~stage ~unit_name:"capture" Kind.Dff [| last |] in
  (match Builder.driver_of b q with
  | Some cell -> Builder.rewire b ~cell ~pin:0 q2
  | None -> assert false);
  let dangling = Builder.cell_count b in
  ignore (Builder.add b ~drive:Cell.X4 ~stage ~unit_name:"spare" Kind.Inv [| q |]);
  (Builder.freeze b, dangling)

let test_uncounted_downsizes () =
  let run chain_drive ~loosen =
    let nl, dangling = dangling_netlist chain_drive in
    let sta = Sta.build nl ~wire_length:no_wire ~capture:capture_all in
    let clock = loosen *. execute_clock sta in
    let r = Sizing.fit ~clock sta in
    let o = Sizing_oracle.fit ~wire_length:no_wire ~capture:capture_all ~clock nl in
    Alcotest.(check bool) "Marshal-equal to the oracle" true
      (Marshal.to_string (Sta.netlist r.Sizing.sta) []
      = Marshal.to_string o.Sizing_oracle.netlist []);
    Alcotest.(check (pair int int)) "rounds, drive changes"
      (o.Sizing_oracle.rounds, o.Sizing_oracle.downsized)
      (r.Sizing.rounds, r.Sizing.downsized);
    let drive = (Sta.netlist r.Sizing.sta).Netlist.cells.(dangling).Netlist.cell.Cell.drive in
    (sta, r, drive)
  in
  let sta, r, drive = run Cell.X0 ~loosen:1.0 in
  Alcotest.(check (pair int int)) "X0 chain: one round per pass, no change" (7, 0)
    (r.Sizing.rounds, r.Sizing.downsized);
  Alcotest.(check bool) "X0 chain: dangling keeps X4" true (drive = Cell.X4);
  Alcotest.(check bool) "X0 chain: unchanged graph" true (r.Sizing.sta == sta);
  let _, r, drive = run Cell.X2 ~loosen:4.0 in
  Alcotest.(check bool) "X2 chain: chain downsized" true (r.Sizing.downsized > 0);
  Alcotest.(check bool) "X2 chain: dangling downsized" true (drive <> Cell.X4)

let test_fit_meets_stage_budgets () =
  let _, _, _, sta = Lazy.force small_sta in
  let clock = execute_clock sta in
  let rep = Sizing.fit ~clock sta in
  check_budgets ~clock (check_report_graph "fit graph" rep)

let test_fit_recovers_area () =
  let _, _, _, sta = Lazy.force small_sta in
  let clock = execute_clock sta in
  let closed = Sizing.close_timing ~clock sta in
  let fitted = Sizing.fit ~clock sta in
  Alcotest.(check bool) "fit ends below closure alone" true
    (fitted.Sizing.area_after < closed.Sizing.area_after)

let test_close_timing_fixes_violation () =
  let v, nl, wire, sta = Lazy.force small_sta in
  let r = Sta.analyze sta ~delays:(Sta.nominal_delays sta) in
  (* Downsize everything to X0, then ask closure to recover a clock the
     original netlist met. *)
  let slow =
    Netlist.remap_cells nl (fun c ->
        Cell.find lib c.Netlist.cell.Cell.kind Cell.X0)
  in
  let clock = r.Sta.worst *. 1.05 in
  let rep =
    Sizing.close_timing ~clock
      (Sta.build slow ~wire_length:wire ~capture:v.Pvtol_vex.Vex_core.capture_stage)
  in
  Alcotest.(check bool) "closure upsized" true (rep.Sizing.downsized > 0);
  let fresh = check_report_graph "close_timing graph" rep in
  check_budgets ~clock fresh;
  let r2 = Sta.analyze fresh ~delays:(Sta.nominal_delays fresh) in
  Alcotest.(check bool) "violation repaired" true (r2.Sta.worst <= clock +. 1e-9)

let test_stage_endpoint_ids () =
  let nl = chain_netlist 2 in
  let sta = Sta.build nl ~wire_length:no_wire ~capture:capture_all in
  let ids = Sta.stage_endpoint_ids sta Stage.Execute in
  Alcotest.(check (list int))
    "array matches list" (Sta.endpoints_of_stage sta Stage.Execute)
    (Array.to_list ids);
  Alcotest.(check (list int)) "no decode endpoints" []
    (Sta.endpoints_of_stage sta Stage.Decode)

let suite =
  ( "timing",
    [
      Alcotest.test_case "sta chain arithmetic" `Quick test_sta_chain_arithmetic;
      Alcotest.test_case "sta max path" `Quick test_sta_uses_max_path;
      Alcotest.test_case "analyze_into matches analyze" `Quick
        test_analyze_into_matches_analyze;
      Alcotest.test_case "batch lanes match scalar" `Quick
        test_analyze_batch_matches_scalar;
      Alcotest.test_case "stage endpoint ids" `Quick test_stage_endpoint_ids;
      Alcotest.test_case "view = build (chained rounds)" `Quick test_view_matches_build;
      qcheck test_view_redrive_sequences;
      Alcotest.test_case "set_master rejects kind change" `Quick
        test_set_master_rejects_kind_change;
      qcheck test_delay_monotonicity;
      Alcotest.test_case "required consistency" `Quick test_required_consistency;
      Alcotest.test_case "stage worst bounds global" `Quick test_stage_worst_bounds_global;
      Alcotest.test_case "vdd scaling speeds up" `Quick test_vdd_scaling_speeds_up;
      Alcotest.test_case "sdf roundtrip" `Quick test_sdf_roundtrip;
      Alcotest.test_case "sdf rewrite" `Quick test_sdf_rewrite;
      Alcotest.test_case "sdf errors" `Quick test_sdf_errors;
      Alcotest.test_case "fit recovers area" `Quick test_fit_recovers_area;
      Alcotest.test_case "uncounted downsizes ride counted rounds" `Quick
        test_uncounted_downsizes;
      Alcotest.test_case "fit meets stage budgets" `Quick test_fit_meets_stage_budgets;
      Alcotest.test_case "close_timing repairs" `Quick test_close_timing_fixes_violation;
      Alcotest.test_case "worst endpoints sorted" `Quick test_worst_endpoints_sorted;
      Alcotest.test_case "uniform skew invisible" `Quick test_uniform_skew_is_invisible;
      Alcotest.test_case "capture skew relaxes" `Quick test_capture_skew_relaxes_endpoint;
      Alcotest.test_case "clock tree" `Quick test_clock_tree;
    ] )
