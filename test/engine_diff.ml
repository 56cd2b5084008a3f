(* Serial Monte-Carlo oracle and the diff that holds [Monte_carlo.run]
   to it.

   [oracle] is the plainest possible SSTA loop: one sequential
   [Srng.create seed] stream over all samples and, per sample and cell,
   the field polynomial at the cell's position plus a
   [Srng.gaussian] draw, scaled by [Process.delay_scale] (the exact
   transcendental delay scale) -> the scalar STA pass of [Sta_oracle],
   with the same worst, per-stage and 2%-criticality bookkeeping as the
   library.  It has no chunks, RNG jumps, pool, delay-scale fit, bulk
   draw, array kernel or lane-strided STA, so it is independent of
   everything the library run adds for speed.

   Comparison contract ([check_mc]):
   - The library replaces the per-(cell, sample) transcendental delay
     scale with a polynomial whose documented relative error is
     <= 1e-12 ({!Pvtol_variation.Sampler.batch}); the forward STA pass
     adds and maxes those delays without amplifying relative error, so
     worst-delay samples must agree within {!rel_bound} — orders looser
     than observed (~1e-14), tight enough that any real regression (a
     swapped lane, a stale arrival, a misordered draw) trips it at
     once.
   - Integer outputs (criticality counts) must be equal. *)

module MC = Pvtol_ssta.Monte_carlo
module Sta = Pvtol_timing.Sta
module Sampler = Pvtol_variation.Sampler
module Field = Pvtol_variation.Field
module Position = Pvtol_variation.Position
module Placement = Pvtol_place.Placement
module Process = Pvtol_stdcell.Process
module Netlist = Pvtol_netlist.Netlist
module Stage = Pvtol_netlist.Stage
module Srng = Pvtol_util.Srng
module Stats = Pvtol_util.Stats
module Fit = Pvtol_util.Fit

let rel_bound = 1e-9

let oracle ~(config : MC.config) ~sampler ~sta ~placement ~position =
  let nl = Sta.netlist sta in
  let n = Netlist.cell_count nl in
  let low = nl.Netlist.lib.Pvtol_stdcell.Cell.process.Pvtol_stdcell.Process.vdd_low in
  let samples = config.MC.samples in
  let systematic =
    Array.init n (fun i ->
        let x_mm, y_mm =
          Position.to_field position ~x_um:placement.Placement.xs.(i)
            ~y_um:placement.Placement.ys.(i)
        in
        Field.systematic_nm sampler.Sampler.field ~x_mm ~y_mm)
  in
  let process = sampler.Sampler.process in
  let sigma = sampler.Sampler.sigma_rnd_nm in
  let base = Sta.nominal_delays sta in
  let ws = Sta_oracle.workspace sta in
  let delays = Array.make n 0.0 in
  let stages =
    List.filter_map
      (fun s ->
        let eps = Sta.stage_endpoint_ids sta s in
        if Array.length eps > 0 then Some (s, eps, Array.make samples 0.0)
        else None)
      Stage.all
  in
  let worst_samples = Array.make samples 0.0 in
  let crit = Hashtbl.create 256 in
  let rng = Srng.create config.MC.seed in
  for k = 0 to samples - 1 do
    for i = 0 to n - 1 do
      let lgate_nm = systematic.(i) +. (sigma *. Srng.gaussian rng) in
      delays.(i) <- base.(i) *. Process.delay_scale process ~vdd:low ~lgate_nm
    done;
    Sta_oracle.analyze_into ws ~delays;
    worst_samples.(k) <- Sta_oracle.ws_worst ws;
    List.iter
      (fun (s, eps, arr) ->
        match Sta_oracle.ws_stage_delay ws s with
        | None -> ()
        | Some stage_worst ->
          arr.(k) <- stage_worst;
          Array.iter
            (fun cid ->
              if Sta_oracle.ws_endpoint_delay ws cid >= 0.98 *. stage_worst then
                Hashtbl.replace crit cid
                  (1 + Option.value (Hashtbl.find_opt crit cid) ~default:0))
            eps)
      stages
  done;
  let stages =
    List.map
      (fun (stage, _, samples) ->
        let fit, gof = Fit.fit_and_test samples in
        { MC.stage; samples; summary = Stats.summarize samples; fit; gof })
      stages
  in
  { MC.position; stages; worst_samples; endpoint_critical_count = crit }

let check_floats ~label ?(rel = rel_bound) expected got =
  if Array.length expected <> Array.length got then
    Alcotest.failf "%s: length %d vs %d" label (Array.length expected)
      (Array.length got);
  Array.iteri
    (fun i e ->
      let g = got.(i) in
      let ok =
        e = g
        || Float.is_finite e && Float.is_finite g
           && Float.abs (g -. e) <= rel *. Float.max (Float.abs e) (Float.abs g)
      in
      if not ok then
        Alcotest.failf "%s: sample %d differs beyond %g rel (oracle %h, run %h)"
          label i rel e g)
    expected

let sorted_crit (r : MC.result) =
  Hashtbl.fold (fun cid n acc -> (cid, n) :: acc) r.MC.endpoint_critical_count []
  |> List.sort compare

(* Full Monte-Carlo result diff: worst-delay and per-stage sample arrays
   within [rel], criticality tables equal. *)
let check_mc ~label ?rel (expected : MC.result) (got : MC.result) =
  check_floats ~label:(label ^ ": worst_samples") ?rel expected.MC.worst_samples
    got.MC.worst_samples;
  List.iter2
    (fun (e : MC.stage_stats) (g : MC.stage_stats) ->
      if not (Stage.equal e.MC.stage g.MC.stage) then
        Alcotest.failf "%s: stage list mismatch" label;
      check_floats
        ~label:(Printf.sprintf "%s: %s samples" label (Stage.name e.MC.stage))
        ?rel e.MC.samples g.MC.samples)
    expected.MC.stages got.MC.stages;
  if sorted_crit expected <> sorted_crit got then
    Alcotest.failf "%s: criticality tables differ" label
