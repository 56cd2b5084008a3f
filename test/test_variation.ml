(* Tests for the process-variation model: field polynomial, positions,
   per-gate sampling. *)

module Field = Pvtol_variation.Field
module Position = Pvtol_variation.Position
module Sampler = Pvtol_variation.Sampler
module Process = Pvtol_stdcell.Process
module Srng = Pvtol_util.Srng
module Stats = Pvtol_util.Stats
module Welford = Pvtol_util.Stream_stats.Welford
module Netlist = Pvtol_netlist.Netlist

let field = Field.default

let test_calibration () =
  (* Over the chip-sized calibration region, |deviation| peaks at 5.5%. *)
  let worst = ref 0.0 in
  for i = 0 to 100 do
    for j = 0 to 100 do
      let x = float_of_int i *. 14.0 /. 100.0 in
      let y = float_of_int j *. 14.0 /. 100.0 in
      worst := Float.max !worst (Float.abs (Field.deviation_frac field ~x_mm:x ~y_mm:y))
    done
  done;
  Alcotest.(check bool) "max deviation ~ 5.5%" true
    (!worst > 0.054 && !worst < 0.0555)

let test_slow_corner_at_origin () =
  let at f = Field.deviation_frac field ~x_mm:(f *. 14.0) ~y_mm:(f *. 14.0) in
  Alcotest.(check bool) "origin is the slow corner" true (at 0.0 > 0.05);
  (* Deviation decreases monotonically along the diagonal. *)
  let prev = ref infinity in
  List.iter
    (fun f ->
      let d = at f in
      Alcotest.(check bool) "monotone along diagonal" true (d < !prev);
      prev := d)
    [ 0.0; 0.2; 0.4; 0.6; 0.8; 1.0 ]

let test_field_clamped () =
  let inside = Field.systematic_nm field ~x_mm:0.0 ~y_mm:0.0 in
  let outside = Field.systematic_nm field ~x_mm:(-5.0) ~y_mm:(-5.0) in
  Alcotest.(check bool) "clamped outside field" true
    (Float.abs (inside -. outside) < 1e-9)

let test_render_map () =
  let map = Field.render_map field ~chip_mm:14.0 in
  Alcotest.(check bool) "renders" true (String.length map > 200)

let test_positions () =
  let a = Position.point_a in
  Alcotest.(check string) "A label" "A" a.Position.label;
  let x, y = Position.to_field a ~x_um:500.0 ~y_um:250.0 in
  Alcotest.(check bool) "um to mm" true
    (Float.abs (x -. 0.5) < 1e-9 && Float.abs (y -. 0.25) < 1e-9);
  let mid = Position.at_fraction 0.5 in
  Alcotest.(check bool) "fraction position" true
    (Float.abs (mid.Position.origin_x_mm -. 7.0) < 1e-9)

let placed_small =
  lazy
    (let v = Pvtol_vex.Vex_core.build Pvtol_vex.Vex_core.small_config in
     let nl = v.Pvtol_vex.Vex_core.netlist in
     let fp = Pvtol_place.Floorplan.create ~cell_area:(Netlist.area nl) () in
     Pvtol_place.Placer.place nl fp)

let test_systematic_per_position () =
  let p = Lazy.force placed_small in
  let sampler = Sampler.create () in
  let at_a = Sampler.systematic_lgates sampler p Position.point_a in
  let at_d = Sampler.systematic_lgates sampler p Position.point_d in
  (* Every cell is slower (longer Lgate) at A than at D. *)
  Array.iteri
    (fun i la ->
      Alcotest.(check bool) "A longer than D" true (la > at_d.(i)))
    at_a;
  let nominal = sampler.Sampler.process.Process.l_nominal_nm in
  Array.iter
    (fun l ->
      Alcotest.(check bool) "A deviation within budget" true
        (l <= nominal *. 1.056 && l >= nominal))
    at_a

let test_sampling_moments () =
  let p = Lazy.force placed_small in
  let sampler = Sampler.create () in
  let systematic = Sampler.systematic_lgates sampler p Position.point_b in
  let rng = Srng.create 31 in
  let out = Array.make (Array.length systematic) 0.0 in
  let acc_err = Welford.create () in
  for _ = 1 to 40 do
    Sampler.sample_lgates sampler ~systematic ~raw:ignore rng out;
    Array.iteri (fun i v -> Welford.add acc_err (v -. systematic.(i))) out
  done;
  (* Residuals are ~N(0, sigma_rnd). *)
  let mean = Welford.mean acc_err and sd = Welford.stddev acc_err in
  Alcotest.(check bool) "random mean ~ 0" true (Float.abs mean < 0.02);
  Alcotest.(check bool) "random sigma matches" true
    (Float.abs (sd -. sampler.Sampler.sigma_rnd_nm) < 0.02)

let test_delay_scale_consistency () =
  let sampler = Sampler.create () in
  let s = Sampler.delay_scale sampler ~lgate_nm:67.0 ~vdd:1.1 in
  let expected = Process.delay_scale sampler.Sampler.process ~vdd:1.1 ~lgate_nm:67.0 in
  Alcotest.(check bool) "matches process model" true (Float.abs (s -. expected) < 1e-12)

let check_bits label expected got =
  if expected <> got then Alcotest.failf "%s: expected %h, got %h" label expected got

(* [Process.supply_delays] against the scalar [Process.delay_scale] at
   both supplies, bit for bit. *)
let check_supply_delays process ~base ~lgates =
  let n = Array.length lgates in
  let low = Array.make n nan and high = Array.make n nan in
  Process.supply_delays process ~base ~lgates ~low ~high;
  List.for_all
    (fun (vdd, out) ->
      List.for_all
        (fun i ->
          Int64.equal
            (Int64.bits_of_float out.(i))
            (Int64.bits_of_float
               (base.(i) *. Process.delay_scale process ~vdd ~lgate_nm:lgates.(i))))
        (List.init n Fun.id))
    [ (process.Process.vdd_low, low); (process.Process.vdd_high, high) ]

let test_supply_delays_bitwise () =
  (* The two-supply kernel shares [lgate ** 1.5] and the DIBL
     exponential between the supplies; each vector must still be the
     scalar model per cell, for Lgates far outside the Monte-Carlo
     window (the batched fit's range) too. *)
  let process = (Sampler.create ()).Sampler.process in
  let lgates = [| 65.0; 66.0; 64.0; 58.3; 71.9; 40.0; 95.0; 65.0 +. 1e-9 |] in
  let base = Array.init (Array.length lgates) (fun i -> 0.05 +. (0.01 *. float_of_int i)) in
  Alcotest.(check bool) "both supplies bitwise" true
    (check_supply_delays process ~base ~lgates);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Process.supply_delays: array lengths differ") (fun () ->
      Process.supply_delays process ~base ~lgates:[| 65.0 |] ~low:base ~high:base)

let prop_supply_delays_bitwise =
  QCheck.Test.make ~name:"supply_delays = delay_scale, random" ~count:500
    QCheck.(
      pair (float_range 0.001 1.0)
        (array_of_size Gen.(int_range 1 16) (float_range 20.0 130.0)))
    (fun (b, lgates) ->
      let process = Process.default in
      let base = Array.mapi (fun i _ -> b *. float_of_int (i + 1)) lgates in
      check_supply_delays process ~base ~lgates
      && check_supply_delays Process.paper_literal ~base ~lgates)

let test_sample_lgates_bitwise () =
  (* [sample_lgates] draws in bulk; it must equal the per-cell
     [systematic + sigma * gaussian] loop bit for bit and leave the
     stream where that loop does, cached Box-Muller half included.  Its
     [raw] hook, where an importance-sampled die prices its weight,
     runs once, on exactly the gaussians a replay of the stream draws. *)
  let sampler = Sampler.create () in
  let sigma = sampler.Sampler.sigma_rnd_nm in
  List.iter
    (fun (n, pending) ->
      let label = Printf.sprintf "n=%d pending=%b" n pending in
      let systematic = Array.init n (fun i -> 63.0 +. (0.37 *. float_of_int i)) in
      let a = Srng.create 77 and b = Srng.create 77 in
      if pending then begin
        ignore (Srng.gaussian a);
        ignore (Srng.gaussian b)
      end;
      let expect =
        Array.init n (fun i -> systematic.(i) +. (sigma *. Srng.gaussian a))
      in
      let replay = Array.make n nan in
      Srng.fill_gaussians (Srng.copy b) replay ~pos:0 ~len:n;
      let got = Array.make n nan in
      let seen = ref [] in
      Sampler.sample_lgates sampler ~systematic
        ~raw:(fun z -> seen := Array.copy z :: !seen)
        b got;
      (match !seen with
      | [ z ] ->
        Array.iteri
          (fun i e -> check_bits (Printf.sprintf "%s gaussian %d" label i) e z.(i))
          replay
      | l -> Alcotest.failf "%s: raw ran %d times" label (List.length l));
      Array.iteri
        (fun i e -> check_bits (Printf.sprintf "%s cell %d" label i) e got.(i))
        expect;
      for k = 1 to 3 do
        check_bits
          (Printf.sprintf "%s next draw %d" label k)
          (Srng.gaussian a) (Srng.gaussian b)
      done)
    [ (64, false); (63, false); (64, true); (63, true); (1, true); (0, false) ]

let test_systematic_map_bitwise () =
  (* The whole-die map kernel is [Position.to_field] + [systematic_nm]
     per cell, bit for bit, including cells clamped at the field edge. *)
  let p = Lazy.force placed_small in
  let sampler = Sampler.create () in
  List.iter
    (fun pos ->
      let got = Sampler.systematic_lgates sampler p pos in
      Array.iteri
        (fun i g ->
          let x_mm, y_mm =
            Position.to_field pos ~x_um:p.Pvtol_place.Placement.xs.(i)
              ~y_um:p.Pvtol_place.Placement.ys.(i)
          in
          check_bits
            (Printf.sprintf "%s cell %d" pos.Position.label i)
            (Field.systematic_nm sampler.Sampler.field ~x_mm ~y_mm)
            g)
        got)
    (Position.at_xy ~x_frac:1.95 ~y_frac:(-0.1) :: Position.named)

let test_scale_batch_lanes () =
  (* The batched scale kernel runs blocks of four Horner chains; every
     lane count 1-32 must equal a 1-lane call on that lane's gaussian
     column bit for bit, leave the lanes past the count untouched, and
     a lane forced outside the fitted window inside a 4-lane block must
     take the exact model. *)
  let sampler = Sampler.create () in
  let process = sampler.Sampler.process in
  let low = process.Process.vdd_low and high = process.Process.vdd_high in
  let n = 37 and stride = 32 in
  let base = Array.init n (fun i -> 0.03 +. (0.002 *. float_of_int i)) in
  let systematic = Array.init n (fun i -> 63.5 +. (0.11 *. float_of_int i)) in
  let vdd i = if i mod 3 = 0 then high else low in
  let batch = Sampler.batch sampler ~base ~systematic ~vdd in
  let gauss = Array.make (stride * n) 0.0 in
  Srng.fill_gaussians (Srng.create 31) gauss ~pos:0 ~len:(stride * n);
  (* Lane 5 of cell 3: fifty random sigmas, far past the window. *)
  let far_lane = 5 and far_cell = 3 in
  gauss.((far_lane * n) + far_cell) <- 50.0;
  let column = Array.make n 0.0 and one = Array.make n 0.0 in
  let out = Array.make (n * stride) nan in
  for lanes = 1 to stride do
    Array.fill out 0 (n * stride) nan;
    Sampler.scale_delays_batch batch ~gauss ~samples:lanes ~stride ~out;
    for k = 0 to stride - 1 do
      if k < lanes then begin
        Array.blit gauss (k * n) column 0 n;
        Sampler.scale_delays_batch batch ~gauss:column ~samples:1 ~stride:1 ~out:one;
        for i = 0 to n - 1 do
          check_bits
            (Printf.sprintf "%d lanes, lane %d, cell %d" lanes k i)
            one.(i)
            out.((i * stride) + k)
        done
      end
      else
        for i = 0 to n - 1 do
          if not (Float.is_nan out.((i * stride) + k)) then
            Alcotest.failf "%d lanes: lane %d of cell %d written" lanes k i
        done
    done;
    if lanes > far_lane then
      check_bits
        (Printf.sprintf "%d lanes, out-of-window lane" lanes)
        (base.(far_cell)
        *. Sampler.delay_scale sampler
             ~lgate_nm:(systematic.(far_cell) +. (sampler.Sampler.sigma_rnd_nm *. 50.0))
             ~vdd:(vdd far_cell))
        out.((far_cell * stride) + far_lane)
  done

let test_custom_budget () =
  let f = Field.create ~l_nominal_nm:65.0 ~max_dev_frac:0.02 in
  let lo, hi = Field.extremes f in
  ignore lo;
  Alcotest.(check bool) "custom budget respected on chip region" true
    (hi <= 65.0 *. 1.021);
  let s = Sampler.create ~three_sigma_rnd_frac:0.03 () in
  Alcotest.(check bool) "sigma from 3-sigma budget" true
    (Float.abs (s.Sampler.sigma_rnd_nm -. (0.01 *. 65.0)) < 1e-9)

let suite =
  ( "variation",
    [
      Alcotest.test_case "field calibration" `Quick test_calibration;
      Alcotest.test_case "slow corner at origin" `Quick test_slow_corner_at_origin;
      Alcotest.test_case "field clamped" `Quick test_field_clamped;
      Alcotest.test_case "render map" `Quick test_render_map;
      Alcotest.test_case "positions" `Quick test_positions;
      Alcotest.test_case "systematic per position" `Quick test_systematic_per_position;
      Alcotest.test_case "sampling moments" `Quick test_sampling_moments;
      Alcotest.test_case "delay scale consistency" `Quick test_delay_scale_consistency;
      Alcotest.test_case "supply_delays = delay_scale" `Quick
        test_supply_delays_bitwise;
      QCheck_alcotest.to_alcotest prop_supply_delays_bitwise;
      Alcotest.test_case "sample_lgates = per-cell gaussian loop" `Quick
        test_sample_lgates_bitwise;
      Alcotest.test_case "systematic map = per-cell field" `Quick
        test_systematic_map_bitwise;
      Alcotest.test_case "scale batch = 1-lane calls (1-32 lanes)" `Quick
        test_scale_batch_lanes;
      Alcotest.test_case "custom budget" `Quick test_custom_budget;
    ] )
