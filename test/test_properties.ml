(* Cross-module property tests over randomly generated netlists and
   placements: the invariants here must hold for ANY design the
   builders can produce, not just the VEX core. *)

open Pvtol_netlist
module Builder = Netlist.Builder
module Kind = Pvtol_stdcell.Kind
module Cell = Pvtol_stdcell.Cell
module Sta = Pvtol_timing.Sta
module Srng = Pvtol_util.Srng

let lib = Cell.default_library

(* Random levelized DAG with flops sprinkled in, closed into a legal
   sequential design.  Deterministic in the seed. *)
let random_netlist seed =
  let rng = Srng.create seed in
  let b = Builder.create ~design_name:"rand" lib in
  let n_inputs = 2 + Srng.int rng 6 in
  let inputs = Array.init n_inputs (fun i -> Builder.input b (Printf.sprintf "i%d" i)) in
  let pool = ref (Array.to_list inputs) in
  let pool_arr () = Array.of_list !pool in
  let kinds =
    [| Kind.Inv; Kind.Buf; Kind.Nand2; Kind.Nor2; Kind.Xor2; Kind.And2;
       Kind.Or2; Kind.Aoi21; Kind.Mux2 |]
  in
  let n_cells = 20 + Srng.int rng 120 in
  let stage_of k =
    match k mod 4 with
    | 0 -> Stage.Decode
    | 1 -> Stage.Execute
    | 2 -> Stage.Writeback
    | _ -> Stage.Fetch
  in
  for k = 0 to n_cells - 1 do
    let arr = pool_arr () in
    let pick () = arr.(Srng.int rng (Array.length arr)) in
    let out =
      if Srng.int rng 8 = 0 then
        (* A flop launching from a random existing net. *)
        Builder.add b ~stage:(stage_of k) ~unit_name:"u" Kind.Dff [| pick () |]
      else begin
        let kind = kinds.(Srng.int rng (Array.length kinds)) in
        let fanins = Array.init (Kind.arity kind) (fun _ -> pick ()) in
        Builder.add b ~stage:(stage_of k) ~unit_name:"u" kind fanins
      end
    in
    pool := out :: !pool
  done;
  (* Terminate every dangling net into an output-reduction tree so the
     netlist has a primary output. *)
  let arr = pool_arr () in
  let rec reduce = function
    | [ x ] -> x
    | x :: y :: rest ->
      reduce (Builder.add b ~stage:Stage.Execute ~unit_name:"u" Kind.Xor2 [| x; y |] :: rest)
    | [] -> assert false
  in
  let out = reduce (Array.to_list arr) in
  Builder.output b out "out";
  Builder.freeze b

let capture_all (c : Netlist.cell) =
  if Kind.is_sequential c.Netlist.cell.Cell.kind then Some c.Netlist.stage
  else None

let prop_random_netlist_invariants =
  QCheck.Test.make ~name:"random netlists satisfy structural invariants"
    ~count:60 (QCheck.int_bound 100_000)
    (fun seed ->
      let nl = random_netlist seed in
      match Netlist.check nl with Ok () -> true | Error _ -> false)

let prop_verilog_roundtrip_random =
  QCheck.Test.make ~name:"verilog round-trips random netlists" ~count:30
    (QCheck.int_bound 100_000)
    (fun seed ->
      let nl = random_netlist seed in
      let nl2 = Pvtol_netlist.Verilog.of_string lib (Pvtol_netlist.Verilog.to_string nl) in
      Netlist.cell_count nl = Netlist.cell_count nl2
      && (match Netlist.check nl2 with Ok () -> true | Error _ -> false))

let prop_sta_scaling_linear =
  QCheck.Test.make ~name:"uniform delay scaling scales arrival linearly"
    ~count:30 (QCheck.int_bound 100_000)
    (fun seed ->
      let nl = random_netlist seed in
      let sta = Sta.build nl ~wire_length:(fun _ -> 0.0) ~capture:capture_all in
      let delays = Sta.nominal_delays sta in
      let r1 = Sta.analyze sta ~delays in
      let doubled = Array.map (fun d -> d *. 2.0) delays in
      let r2 = Sta.analyze sta ~delays:doubled in
      (* With zero wire and zero setup the scaling would be exactly 2x;
         setup is additive, so subtract it from both sides. *)
      let s = lib.Cell.setup in
      r1.Sta.worst_endpoint = -1
      || Float.abs (r2.Sta.worst -. s -. (2.0 *. (r1.Sta.worst -. s))) < 1e-9)

let prop_sdf_roundtrip_random =
  QCheck.Test.make ~name:"sdf round-trips random netlists" ~count:30
    (QCheck.int_bound 100_000)
    (fun seed ->
      let nl = random_netlist seed in
      let sta = Sta.build nl ~wire_length:(fun _ -> 2.0) ~capture:capture_all in
      let delays = Sta.nominal_delays sta in
      let back = Pvtol_timing.Sdf.of_string nl (Pvtol_timing.Sdf.to_string nl ~delays) in
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-5) delays back)

let prop_gatesim_matches_simtool =
  (* The production activity simulator and the test-oracle simulator
     must agree on toggle counts for any design and stimulus. *)
  QCheck.Test.make ~name:"gatesim agrees with the reference simulator" ~count:15
    (QCheck.int_bound 100_000)
    (fun seed ->
      let nl = random_netlist seed in
      let cycles = 24 in
      let stim = Pvtol_power.Gatesim.random_stimulus ~seed:(seed + 1) in
      let act = Pvtol_power.Gatesim.run ~cycles nl stim in
      (* Reference: Simtool with the same stimulus and clocking order. *)
      let sim = Simtool.create nl in
      let toggles = Array.make (Netlist.cell_count nl) 0 in
      let prev = Array.make (Netlist.net_count nl) false in
      for cycle = 0 to cycles - 1 do
        Array.iteri
          (fun idx nid ->
            Simtool.set_input sim nid (stim ~cycle ~input_index:idx))
          nl.Netlist.inputs;
        Simtool.eval_comb sim;
        Array.iter
          (fun (c : Netlist.cell) ->
            if Netlist.is_comb c then begin
              let v = Simtool.read sim c.Netlist.fanout in
              if v <> prev.(c.Netlist.fanout) then
                toggles.(c.Netlist.id) <- toggles.(c.Netlist.id) + 1;
              prev.(c.Netlist.fanout) <- v
            end)
          nl.Netlist.cells;
        Simtool.clock_edge sim;
        Array.iter
          (fun (c : Netlist.cell) ->
            if not (Netlist.is_comb c) then begin
              let v = Simtool.read sim c.Netlist.fanout in
              if v <> prev.(c.Netlist.fanout) then
                toggles.(c.Netlist.id) <- toggles.(c.Netlist.id) + 1;
              prev.(c.Netlist.fanout) <- v
            end)
          nl.Netlist.cells
      done;
      act.Pvtol_power.Gatesim.toggles = toggles)

(* [nl] plus a buffer (BUF or LS) on every flop-driven net and on a
   random third of the other cell-driven nets; each buffer takes over a
   random subset of its net's sinks, possibly none or all. *)
let append_buffers seed (nl : Netlist.t) =
  let rng = Srng.create seed in
  let n = Netlist.cell_count nl and m = Netlist.net_count nl in
  let cells =
    Array.map
      (fun (c : Netlist.cell) -> { c with Netlist.fanins = Array.copy c.Netlist.fanins })
      nl.Netlist.cells
  in
  let nets = Array.copy nl.Netlist.nets in
  let chosen =
    Array.to_list nl.Netlist.nets
    |> List.filter (fun (net : Netlist.net) ->
           match net.Netlist.driver with
           | Some d -> (not (Netlist.is_comb cells.(d))) || Srng.int rng 3 = 0
           | None -> false)
  in
  let buffers =
    List.mapi
      (fun k (net : Netlist.net) ->
        let id = n + k and out = m + k in
        let moved, kept =
          List.partition
            (fun _ -> Srng.int rng 2 = 0)
            (Array.to_list net.Netlist.sinks)
        in
        List.iter (fun (cid, pin) -> cells.(cid).Netlist.fanins.(pin) <- out) moved;
        nets.(net.Netlist.net_id) <-
          { net with Netlist.sinks = Array.of_list ((id, 0) :: kept) };
        let kind = if Srng.int rng 2 = 0 then Kind.Buf else Kind.Ls in
        ( {
            (cells.(0)) with
            Netlist.id;
            name = Printf.sprintf "b%d" k;
            cell = Cell.find lib kind Cell.X1;
            fanins = [| net.Netlist.net_id |];
            fanout = out;
          },
          {
            Netlist.net_id = out;
            net_name = Printf.sprintf "b%d_o" k;
            driver = Some id;
            sinks = Array.of_list moved;
            is_output = false;
          } ))
      chosen
  in
  { nl with
    Netlist.cells = Array.append cells (Array.of_list (List.map fst buffers));
    nets = Array.append nets (Array.of_list (List.map snd buffers)) }

let prop_extend_matches_resimulation =
  (* The activity derived for appended buffers equals a second
     simulation, on odd and even cycle counts alike. *)
  QCheck.Test.make ~name:"extended activity equals re-simulation" ~count:40
    QCheck.(pair (int_bound 100_000) (int_range 1 40))
    (fun (seed, cycles) ->
      let nl = random_netlist seed in
      let ext = append_buffers (seed + 7) nl in
      let stim = Pvtol_power.Gatesim.random_stimulus ~seed:(seed + 1) in
      Netlist.check ext = Ok ()
      && List.for_all
           (fun cycles ->
             let a = Pvtol_power.Gatesim.run ~cycles nl stim in
             Marshal.to_string (Pvtol_power.Gatesim.extend a ~base:nl ext) []
             = Marshal.to_string (Pvtol_power.Gatesim.run ~cycles ext stim) [])
           [ cycles; cycles + 1 ])

let prop_spef_roundtrip =
  QCheck.Test.make ~name:"spef extract/annotate reproduces the placed STA"
    ~count:10 (QCheck.int_bound 100_000)
    (fun seed ->
      let nl = random_netlist seed in
      let fp = Pvtol_place.Floorplan.create ~cell_area:(Netlist.area nl) () in
      let p = Pvtol_place.Placer.place ~iterations:6 nl fp in
      let parasitics = Pvtol_timing.Spef.extract p in
      let text = Pvtol_timing.Spef.to_string nl parasitics in
      let back = Pvtol_timing.Spef.of_string nl text in
      let sta_direct = Sta.of_placement p ~capture:capture_all in
      let sta_annot = Pvtol_timing.Spef.annotate nl back ~capture:capture_all in
      let r1 = Sta.analyze sta_direct ~delays:(Sta.nominal_delays sta_direct) in
      let r2 = Sta.analyze sta_annot ~delays:(Sta.nominal_delays sta_annot) in
      Float.abs (r1.Sta.worst -. r2.Sta.worst) < 1e-6)

let prop_liberty_roundtrip_fuzzed =
  (* Random re-characterisations of the library survive the Liberty
     text round trip exactly (9 significant digits). *)
  QCheck.Test.make ~name:"liberty round-trips fuzzed characterisations"
    ~count:25 (QCheck.int_bound 100_000)
    (fun seed ->
      let rng = Srng.create seed in
      let fuzz v = v *. (0.5 +. Srng.uniform rng) in
      let lib0 = Cell.default_library in
      let lib =
        {
          lib0 with
          Cell.cells =
            List.map
              (fun (c : Cell.t) ->
                {
                  c with
                  Cell.area = fuzz c.Cell.area;
                  input_cap = fuzz c.Cell.input_cap;
                  d0 = fuzz c.Cell.d0;
                  drive_res = fuzz c.Cell.drive_res;
                  e_internal = fuzz c.Cell.e_internal;
                  leak = fuzz c.Cell.leak;
                })
              lib0.Cell.cells;
          wire_cap_per_um = fuzz lib0.Cell.wire_cap_per_um;
        }
      in
      let lib2 = Pvtol_stdcell.Liberty.of_string (Pvtol_stdcell.Liberty.to_string lib) in
      List.for_all2
        (fun (a : Cell.t) (b : Cell.t) ->
          (* %.9g keeps 9 significant digits -> <= 5e-9 relative error. *)
          let eq x y = Float.abs (x -. y) <= 1e-7 *. Float.max 1.0 (Float.abs x) in
          eq a.Cell.area b.Cell.area && eq a.Cell.input_cap b.Cell.input_cap
          && eq a.Cell.d0 b.Cell.d0 && eq a.Cell.drive_res b.Cell.drive_res
          && eq a.Cell.e_internal b.Cell.e_internal && eq a.Cell.leak b.Cell.leak)
        lib.Cell.cells lib2.Cell.cells)

let prop_island_domains_partition =
  QCheck.Test.make ~name:"island domains partition every placed point"
    ~count:100
    QCheck.(triple (float_range 0.1 0.9) (float_range 0.1 0.9) (float_range 0.1 0.9))
    (fun (t1, t2, t3) ->
      let module Island = Pvtol_core.Island in
      let module Geom = Pvtol_util.Geom in
      let core = Geom.rect ~llx:0.0 ~lly:0.0 ~urx:100.0 ~ury:100.0 in
      let ts = List.sort compare [ t1; t2; t3 ] in
      let islands =
        List.mapi
          (fun i t ->
            {
              Island.index = i + 1;
              region = Island.region_of_fraction ~core Island.Vertical
                  Pvtol_place.Density.Left ~t;
              cells = [||];
            })
          ts
        |> Array.of_list
      in
      let part =
        { Island.direction = Island.Vertical; side = Pvtol_place.Density.Left;
          islands; core }
      in
      (* Sample points: the domain is the index of the innermost island
         containing the point, consistent with region membership. *)
      let ok = ref true in
      for ix = 0 to 19 do
        for iy = 0 to 19 do
          let pt = Geom.point (float_of_int ix *. 5.0 +. 1.0) (float_of_int iy *. 5.0 +. 1.0) in
          let d = Island.domain_of_point part pt in
          let member k = Geom.contains islands.(k).Island.region pt in
          let expected =
            if member 0 then 1 else if member 1 then 2 else if member 2 then 3 else 4
          in
          if d <> expected then ok := false
        done
      done;
      !ok)

(* --- streaming statistics vs the exact array-based reference --- *)

let samples_gen =
  (* Non-empty float arrays over a few orders of magnitude, including
     negative values and repeats. *)
  QCheck.(
    array_of_size Gen.(1 -- 200)
      (oneof [ float_range (-5.0) 5.0; float_range 100.0 1000.0 ]))

let prop_welford_matches_summarize =
  QCheck.Test.make ~name:"welford matches the exact summary" ~count:200
    samples_gen
    (fun xs ->
      let module W = Pvtol_util.Stream_stats.Welford in
      let w = W.create () in
      Array.iter (W.add w) xs;
      let s = Pvtol_util.Stats.summarize xs
      and ws = W.summary w in
      let eq a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs a) in
      ws.Pvtol_util.Stats.n = s.Pvtol_util.Stats.n
      && eq s.Pvtol_util.Stats.mean ws.Pvtol_util.Stats.mean
      && eq s.Pvtol_util.Stats.stddev ws.Pvtol_util.Stats.stddev
      && s.Pvtol_util.Stats.min = ws.Pvtol_util.Stats.min
      && s.Pvtol_util.Stats.max = ws.Pvtol_util.Stats.max)

let prop_welford_merge =
  QCheck.Test.make ~name:"welford split+merge equals one stream" ~count:200
    QCheck.(pair samples_gen samples_gen)
    (fun (xs, ys) ->
      let module W = Pvtol_util.Stream_stats.Welford in
      let wa = W.create () and wb = W.create () and whole = W.create () in
      Array.iter (W.add wa) xs;
      Array.iter (W.add wb) ys;
      Array.iter (W.add whole) xs;
      Array.iter (W.add whole) ys;
      W.merge ~into:wa wb;
      let eq a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs a) in
      W.count wa = W.count whole
      && eq (W.mean whole) (W.mean wa)
      && eq (W.variance whole) (W.variance wa)
      && W.min wa = W.min whole
      && W.max wa = W.max whole)

let prop_welford_merge_adversarial =
  (* Pairwise merge vs the serial stream under adversarial orderings:
     segments of wildly different sizes (including empty and singleton
     ones) and magnitudes, folded in a shuffled order and also as a
     balanced tree.  Both must agree with one serial pass. *)
  QCheck.Test.make ~name:"welford merge survives adversarial orderings"
    ~count:200
    QCheck.(
      pair (int_bound 100_000)
        (small_list
           (oneof
              [ array_of_size Gen.(0 -- 3) (float_range (-1e6) 1e6);
                array_of_size Gen.(0 -- 40) (float_range (-1e-6) 1e-6);
                array_of_size Gen.(1 -- 40) (float_range 100.0 1000.0) ])))
    (fun (seed, segments) ->
      let module W = Pvtol_util.Stream_stats.Welford in
      let segments = Array.of_list segments in
      let whole = W.create () in
      Array.iter (fun seg -> Array.iter (W.add whole) seg) segments;
      let acc_of seg =
        let w = W.create () in
        Array.iter (W.add w) seg;
        w
      in
      let eq a b =
        (a = b)
        || Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs a)
      in
      let agrees w =
        W.count w = W.count whole
        && eq (W.mean whole) (W.mean w)
        && eq (W.variance whole) (W.variance w)
        && (W.count w = 0 || (W.min w = W.min whole && W.max w = W.max whole))
      in
      (* Shuffled fold order. *)
      let order = Array.init (Array.length segments) Fun.id in
      Srng.shuffle (Srng.create seed) order;
      let folded = W.create () in
      Array.iter (fun i -> W.merge ~into:folded (acc_of segments.(i))) order;
      (* Balanced pairwise tree, original order. *)
      let rec tree lo hi =
        if lo >= hi then W.create ()
        else if hi - lo = 1 then acc_of segments.(lo)
        else begin
          let mid = (lo + hi) / 2 in
          let l = tree lo mid in
          W.merge ~into:l (tree mid hi);
          l
        end
      in
      agrees folded && agrees (tree 0 (Array.length segments)))

let prop_p2_exact_small =
  QCheck.Test.make ~name:"p2 is exact for five or fewer samples" ~count:200
    QCheck.(pair (array_of_size Gen.(1 -- 5) (float_range (-10.0) 10.0))
              (float_range 0.05 0.95))
    (fun (xs, p) ->
      let module P2 = Pvtol_util.Stream_stats.P2 in
      let q = P2.create p in
      Array.iter (P2.add q) xs;
      Float.abs (P2.estimate q -. Pvtol_util.Stats.quantile xs p) <= 1e-12)

let prop_p2_estimates_quantile =
  (* The marker estimate is approximate: on 50..400 well-behaved
     samples it stays within 15% of the sample range of the exact
     order-statistic quantile (the observed worst case is far below
     this; the bound documents the estimator's contract, not its
     typical accuracy). *)
  QCheck.Test.make ~name:"p2 tracks the exact quantile" ~count:100
    QCheck.(triple (int_bound 100_000)
              (int_range 50 400)
              (oneofl [ 0.25; 0.5; 0.75; 0.9 ]))
    (fun (seed, n, p) ->
      let module P2 = Pvtol_util.Stream_stats.P2 in
      let rng = Srng.create seed in
      let xs =
        Array.init n (fun _ ->
            (* Sum of three uniforms: smooth, unimodal. *)
            Srng.uniform rng +. Srng.uniform rng +. Srng.uniform rng)
      in
      let q = P2.create p in
      Array.iter (P2.add q) xs;
      let exact = Pvtol_util.Stats.quantile xs p in
      let range =
        Array.fold_left Float.max neg_infinity xs
        -. Array.fold_left Float.min infinity xs
      in
      Float.abs (P2.estimate q -. exact) <= 0.15 *. range)

let prop_counter_merge =
  QCheck.Test.make ~name:"counter merge equals concatenated counts" ~count:200
    QCheck.(pair (list (int_range (-2) 8)) (list (int_range (-2) 8)))
    (fun (xs, ys) ->
      let module C = Pvtol_util.Stream_stats.Counter in
      let range = 6 in
      let ca = C.create range and cb = C.create range and whole = C.create range in
      List.iter (C.add ca) xs;
      List.iter (C.add cb) ys;
      List.iter (C.add whole) xs;
      List.iter (C.add whole) ys;
      C.merge ~into:ca cb;
      C.to_array ca = C.to_array whole
      && C.total ca = List.length xs + List.length ys)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  ( "properties",
    [
      qcheck prop_random_netlist_invariants;
      qcheck prop_verilog_roundtrip_random;
      qcheck prop_sta_scaling_linear;
      qcheck prop_sdf_roundtrip_random;
      qcheck prop_gatesim_matches_simtool;
      qcheck prop_extend_matches_resimulation;
      qcheck prop_spef_roundtrip;
      qcheck prop_liberty_roundtrip_fuzzed;
      qcheck prop_island_domains_partition;
      qcheck prop_welford_matches_summarize;
      qcheck prop_welford_merge;
      qcheck prop_welford_merge_adversarial;
      qcheck prop_p2_exact_small;
      qcheck prop_p2_estimates_quantile;
      qcheck prop_counter_merge;
    ] )
