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

(* The array kernel on a unit base is the scalar model bit for bit:
   the fits' node values, the corner check's and the analytic SSTA's
   per-cell scales all rest on it. *)
let test_delay_scale_consistency () =
  let process = (Sampler.create ()).Sampler.process in
  let lgates = Array.init 41 (fun i -> 55.0 +. (0.5 *. float_of_int i)) in
  let n = Array.length lgates in
  let out = Array.make n 0.0 in
  List.iter
    (fun vdd ->
      Process.scale_into process ~vdd ~base:(Array.make n 1.0) ~lgates ~out;
      Array.iteri
        (fun i lgate_nm ->
          if out.(i) <> Process.delay_scale process ~vdd ~lgate_nm then
            Alcotest.failf "vdd %g, lgate %g: %h <> %h" vdd lgate_nm out.(i)
              (Process.delay_scale process ~vdd ~lgate_nm))
        lgates)
    [ process.Process.vdd_low; 1.1; process.Process.vdd_high ]

let check_bits label expected got =
  if expected <> got then Alcotest.failf "%s: expected %h, got %h" label expected got

(* The exact die kernel at both supplies: the oracle of the fitted
   [Sampler.scale_die], and the census's low supply bit for bit. *)
let supply_delays process ~base ~lgates ~low ~high =
  Process.scale_into process ~vdd:process.Process.vdd_low ~base ~lgates ~out:low;
  Process.scale_into process ~vdd:process.Process.vdd_high ~base ~lgates
    ~out:high

(* [supply_delays] against the scalar [Process.delay_scale] at both
   supplies, bit for bit. *)
let check_supply_delays process ~base ~lgates =
  let n = Array.length lgates in
  let low = Array.make n nan and high = Array.make n nan in
  supply_delays process ~base ~lgates ~low ~high;
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
  (* The array kernel evaluates the normalising corner once per call;
     each vector must still be the scalar model per cell, for Lgates
     far outside any die's window too. *)
  let process = (Sampler.create ()).Sampler.process in
  let lgates = [| 65.0; 66.0; 64.0; 58.3; 71.9; 40.0; 95.0; 65.0 +. 1e-9 |] in
  let base = Array.init (Array.length lgates) (fun i -> 0.05 +. (0.01 *. float_of_int i)) in
  Alcotest.(check bool) "both supplies bitwise" true
    (check_supply_delays process ~base ~lgates);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Process.scale_into: array lengths differ") (fun () ->
      supply_delays process ~base ~lgates:[| 65.0 |] ~low:base ~high:base)

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

(* --- the per-die fit against the exact kernel --- *)

(* The documented bound of [Sampler.scale_die]'s fitted supplies. *)
let fit_bound = 1e-12

let rel_err e g = if e = g then 0.0 else Float.abs (g -. e) /. Float.abs e

(* [scale_die] on one die, both ways, against [supply_delays]: the
   fitted supplies within [fit_bound] relative and finite, and with
   [exact_low] the low vector the exact one bit for bit. *)
let check_die_fit label sampler ~base ~lgates =
  let n = Array.length lgates in
  let process = sampler.Sampler.process in
  let low = Array.make n nan and high = Array.make n nan in
  supply_delays process ~base ~lgates ~low ~high;
  let fit = Sampler.die_fit sampler in
  List.iter
    (fun exact_low ->
      let flow = Array.make n nan and fhigh = Array.make n nan in
      Sampler.scale_die fit ~exact_low ~base ~lgates ~low:flow ~high:fhigh;
      let l = Printf.sprintf "%s, exact_low %b" label exact_low in
      List.iter
        (fun (supply, e, g) ->
          Array.iteri
            (fun i e ->
              let g = g.(i) in
              if not (Float.is_finite g) then
                Alcotest.failf "%s: %s cell %d not finite (%h)" l supply i g;
              let r = rel_err e g in
              if r > fit_bound then
                Alcotest.failf "%s: %s cell %d off by %.3g relative" l supply i r)
            e)
        [ ("low", low, flow); ("high", high, fhigh) ];
      if exact_low then
        Array.iteri
          (fun i e -> check_bits (Printf.sprintf "%s: exact low cell %d" l i) e flow.(i))
          low)
    [ false; true ]

(* The quick design's placement, nominal delays and flow. *)
let quick_die =
  lazy
    (let t, _ = Lazy.force Test_extensions.env in
     ( Pvtol_core.Flow.placement t,
       Pvtol_timing.Sta.nominal_delays (Pvtol_core.Flow.sta t),
       t ))

let die_lgates sampler ~systematic seed =
  let out = Array.make (Array.length systematic) 0.0 in
  Sampler.sample_lgates sampler ~systematic ~raw:ignore (Srng.create seed) out;
  out

let test_die_fit_positions () =
  (* Dies of the quick design at the four named positions, under the
     default process and [Process.paper_literal], and at position B
     under the point-B importance-sampling mixture's widest tilt (the
     largest [theta]): the shifted map widens the die's window. *)
  let placement, base, t = Lazy.force quick_die in
  let default = Sampler.create () in
  let literal = { default with Sampler.process = Process.paper_literal } in
  List.iter
    (fun (pname, sampler) ->
      List.iter
        (fun pos ->
          let systematic = Sampler.systematic_lgates sampler placement pos in
          for seed = 1 to 3 do
            check_die_fit
              (Printf.sprintf "%s %s die %d" pname pos.Position.label seed)
              sampler ~base ~lgates:(die_lgates sampler ~systematic seed)
          done)
        Position.named)
    [ ("default", default); ("paper_literal", literal) ];
  let sta = Pvtol_core.Flow.sta t in
  let systematic = Sampler.systematic_lgates default placement Position.point_b in
  let tilts =
    Pvtol_ssta.Smart_sampling.tilts ~sampler:default ~sta ~base ~systematic
      ~vdd:default.Sampler.process.Process.vdd_low
      ~clock:(Pvtol_core.Flow.clock t)
      ~stages:Pvtol_ssta.Scenario.analyzed_stages ~rare:3 ()
  in
  if Array.length tilts = 0 then Alcotest.fail "no tilt at B";
  let widest =
    Array.fold_left
      (fun (a : Pvtol_ssta.Smart_sampling.tilt) (b : Pvtol_ssta.Smart_sampling.tilt) ->
        if b.theta > a.theta then b else a)
      tilts.(0) tilts
  in
  let shifted = Array.make (Array.length systematic) 0.0 in
  Sampler.shifted_systematic default ~systematic ~cells:widest.cells
    ~dir:widest.dir ~theta:widest.theta ~out:shifted;
  for seed = 1 to 3 do
    check_die_fit
      (Printf.sprintf "B shifted by theta %.2f, die %d" widest.theta seed)
      default ~base ~lgates:(die_lgates default ~systematic:shifted seed)
  done

let test_die_fit_degenerate () =
  (* Windows with nothing to fit (no cell, one cell, every Lgate equal,
     one or four ULPs wide) take the exact kernel; windows just past
     the flat threshold, and a micrometre wide, still fit within the
     bound; and a zero-sigma sampler's dies are their systematic map. *)
  let default = Sampler.create () in
  let base n = Array.init n (fun i -> 0.04 +. (0.001 *. float_of_int i)) in
  List.iter
    (fun (label, lgates) ->
      check_die_fit label default ~base:(base (Array.length lgates)) ~lgates)
    [ ("one cell", [| 66.3 |]);
      ("flat", Array.make 9 64.2);
      ("one ULP", [| 65.0; Float.succ 65.0; 65.0; Float.succ 65.0 |]);
      ("four ULPs",
       Array.init 7 (fun i ->
           if i mod 2 = 0 then 65.0
           else Float.succ (Float.succ (Float.succ (Float.succ 65.0)))));
      ("empty", [||]);
      ("just past flat", [| 65.0; 65.0 *. (1.0 +. 2e-9); 65.0 *. (1.0 +. 1e-9) |]);
      ("a micrometre", [| 65.0; 65.0 +. 1e-6; 65.0 +. 5e-7 |]) ];
  let placement, base, _ = Lazy.force quick_die in
  let zero = Sampler.create ~three_sigma_rnd_frac:0.0 () in
  List.iter
    (fun pos ->
      let systematic = Sampler.systematic_lgates zero placement pos in
      let lgates = die_lgates zero ~systematic 5 in
      Array.iteri
        (fun i e -> check_bits (Printf.sprintf "zero sigma cell %d" i) e lgates.(i))
        systematic;
      check_die_fit ("zero sigma " ^ pos.Position.label) zero ~base ~lgates)
    Position.named;
  let lgates = [| 65.0; 66.0 |] and out = Array.make 2 0.0 in
  Alcotest.check_raises "aliased vectors"
    (Invalid_argument "Sampler.scale_die: low, high and lgates must be distinct")
    (fun () ->
      Sampler.scale_die (Sampler.die_fit default) ~exact_low:false
        ~base:[| 1.0; 1.0 |] ~lgates ~low:out ~high:out)

let test_die_fit_allocation () =
  (* The fit's coefficients, nodes and supplies live in its scratch:
     a die allocates nothing, fitted, exact-low or flat. *)
  let sampler = Sampler.create () in
  let fit = Sampler.die_fit sampler in
  let n = 257 in
  let base = Array.make n 0.05 and low = Array.make n 0.0 in
  let high = Array.make n 0.0 in
  let spread = Array.init n (fun i -> 60.0 +. (0.05 *. float_of_int i)) in
  List.iter
    (fun (label, lgates, exact_low) ->
      let die () =
        Sampler.scale_die fit ~exact_low ~base ~lgates ~low ~high
      in
      die ();
      let w0 = Gc.minor_words () in
      for _ = 1 to 10 do
        die ()
      done;
      let words = Gc.minor_words () -. w0 in
      (* [Gc.minor_words] boxes its own result: two words. *)
      if words > 2.0 then
        Alcotest.failf "%s: %.0f minor words over ten dies" label words)
    [ ("fitted", spread, false); ("exact low", spread, true);
      ("flat", Array.make n 65.0, false) ]

let prop_die_fit =
  (* Random dies: a systematic level anywhere the field reaches (±6% of
     nominal), a random sigma up to the default's, and up to a 10-sigma
     tail, so windows run from a fraction of a nanometre to the widest
     a tilted die meets. *)
  QCheck.Test.make ~name:"scale_die = exact kernel, random dies" ~count:200
    QCheck.(
      quad (float_range 61.0 69.0) (float_range 0.0 1.5) (float_range 0.0 10.0)
        (array_of_size Gen.(int_range 1 64) (float_range (-1.0) 1.0)))
    (fun (centre, sigma, tail, zs) ->
      let sampler = Sampler.create () in
      let lgates = Array.map (fun z -> centre +. (sigma *. tail *. z)) zs in
      let base = Array.mapi (fun i _ -> 0.02 +. (0.003 *. float_of_int i)) lgates in
      check_die_fit "random" sampler ~base ~lgates;
      let literal = { sampler with Sampler.process = Process.paper_literal } in
      check_die_fit "random, paper_literal" literal ~base ~lgates;
      true)

let prop_die_fit_high_below_low =
  (* The island settle skips a die's all-high lane where a raise meets,
     which rests on the die's high-supply delay being at most its
     low-supply one on every cell: random dies of the default sampler's
     sigma out to a 10-sigma tail, fitted and exact-low, under the
     default process and [Process.paper_literal]. *)
  QCheck.Test.make ~name:"scale_die: high <= low on every cell" ~count:200
    QCheck.(
      triple (float_range 61.0 69.0) (float_range 0.0 10.0)
        (array_of_size Gen.(int_range 1 64) (float_range (-1.0) 1.0)))
    (fun (centre, tail, zs) ->
      let default = Sampler.create () in
      let sigma = default.Sampler.sigma_rnd_nm in
      let lgates = Array.map (fun z -> centre +. (sigma *. tail *. z)) zs in
      let n = Array.length lgates in
      let base = Array.init n (fun i -> 0.02 +. (0.003 *. float_of_int i)) in
      let literal = { default with Sampler.process = Process.paper_literal } in
      List.for_all
        (fun sampler ->
          let fit = Sampler.die_fit sampler in
          List.for_all
            (fun exact_low ->
              let low = Array.make n nan and high = Array.make n nan in
              Sampler.scale_die fit ~exact_low ~base ~lgates ~low ~high;
              Array.for_all2 (fun h l -> h <= l) high low)
            [ false; true ])
        [ default; literal ])

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
  let raised i = i mod 3 = 0 in
  let vdd i = if raised i then high else low in
  let batch = Sampler.batch sampler ~base ~systematic ~raised in
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
        *. Process.delay_scale process ~vdd:(vdd far_cell)
             ~lgate_nm:(systematic.(far_cell) +. (sampler.Sampler.sigma_rnd_nm *. 50.0)))
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
      Alcotest.test_case "die fit = exact kernel (A-D, IS tilt)" `Quick
        test_die_fit_positions;
      Alcotest.test_case "die fit degenerate windows" `Quick
        test_die_fit_degenerate;
      Alcotest.test_case "die fit allocates nothing" `Quick
        test_die_fit_allocation;
      QCheck_alcotest.to_alcotest prop_die_fit;
      QCheck_alcotest.to_alcotest prop_die_fit_high_below_low;
      Alcotest.test_case "sample_lgates = per-cell gaussian loop" `Quick
        test_sample_lgates_bitwise;
      Alcotest.test_case "systematic map = per-cell field" `Quick
        test_systematic_map_bitwise;
      Alcotest.test_case "scale batch = 1-lane calls (1-32 lanes)" `Quick
        test_scale_batch_lanes;
      Alcotest.test_case "custom budget" `Quick test_custom_budget;
    ] )
