open Pvtol_netlist
module Geom = Pvtol_util.Geom
module Density = Pvtol_place.Density
module Placement = Pvtol_place.Placement
module Sta = Pvtol_timing.Sta
module Sampler = Pvtol_variation.Sampler
module Position = Pvtol_variation.Position

type target = {
  scenario_index : int;
  position : Position.t;
}

type outcome = {
  partition : Island.partition;
  cuts : float array;
  checks : int;
}

exception Infeasible of string

let corner_kappa = 0.35

(* Binary-search resolution of an island cut. *)
let tolerance_um = 2.0

let corner_check ~sta ~sampler ~clock =
  let process = (Sta.netlist sta).Netlist.lib.Pvtol_stdcell.Cell.process in
  let vdd_low = process.Pvtol_stdcell.Process.vdd_low in
  let vdd_high = process.Pvtol_stdcell.Process.vdd_high in
  let base = Sta.nominal_delays sta in
  let n = Array.length base in
  let delays = Array.make n 0.0 in
  let ws = Sta.workspace sta in
  fun ~systematic ->
    let shift = corner_kappa *. sampler.Sampler.sigma_rnd_nm in
    let lgates = Array.map (fun lg -> lg +. shift) systematic in
    let at vdd =
      let out = Array.make n 0.0 in
      Pvtol_stdcell.Process.scale_into sampler.Sampler.process ~vdd ~base
        ~lgates ~out;
      out
    in
    let low = at vdd_low and high = at vdd_high in
    fun ~raised ->
      for i = 0 to n - 1 do
        delays.(i) <- if raised i then high.(i) else low.(i)
      done;
      Sta.analyze_into sta ws ~delays;
      List.for_all
        (fun s ->
          match Sta.ws_stage_delay ws s 0 with
          | Some d -> d <= clock +. 1e-9
          | None -> true)
        Pvtol_ssta.Scenario.analyzed_stages

let pick_side direction density =
  (* Restrict the density choice to the sides compatible with the
     slicing orientation. *)
  let third = density.Density.nx / 3 in
  let sum pred =
    let acc = ref 0.0 in
    for iy = 0 to density.Density.ny - 1 do
      for ix = 0 to density.Density.nx - 1 do
        if pred ix iy then
          acc := !acc +. density.Density.occupied.((iy * density.Density.nx) + ix)
      done
    done;
    !acc
  in
  match direction with
  | Island.Vertical ->
    let left = sum (fun ix _ -> ix < third) in
    let right = sum (fun ix _ -> ix >= density.Density.nx - third) in
    if left >= right then Density.Left else Density.Right
  | Island.Horizontal ->
    let bottom = sum (fun _ iy -> iy < third) in
    let top = sum (fun _ iy -> iy >= density.Density.ny - third) in
    if bottom >= top then Density.Bottom else Density.Top
  | Island.Quadrant ->
    (* Pick the densest corner quarter; Island's corner encoding. *)
    let nx = density.Density.nx and ny = density.Density.ny in
    let half_x = nx / 2 and half_y = ny / 2 in
    let corners =
      [
        (Density.Left, sum (fun ix iy -> ix < half_x && iy < half_y));
        (Density.Right, sum (fun ix iy -> ix >= half_x && iy >= half_y));
        (Density.Bottom, sum (fun ix iy -> ix >= half_x && iy < half_y));
        (Density.Top, sum (fun ix iy -> ix < half_x && iy >= half_y));
      ]
    in
    fst
      (List.fold_left
         (fun (bs, bv) (s, v) -> if v > bv then (s, v) else (bs, bv))
         (Density.Left, neg_infinity) corners)

let generate ~direction ~sta ~placement ~sampler ~clock ~targets =
  let core = placement.Placement.floorplan.Pvtol_place.Floorplan.core in
  let side = pick_side direction (Density.compute placement) in
  (* Growth parameterised by the fraction t of the core consumed from
     the chosen side or corner. *)
  let region_of_t t = Island.region_of_fraction ~core direction side ~t in
  let cut_of_t t =
    (* Representative cut coordinate, for reporting. *)
    let r = region_of_t t in
    match (direction, side) with
    | Island.Vertical, Density.Left -> r.Geom.urx
    | Island.Vertical, Density.Right -> r.Geom.llx
    | Island.Horizontal, Density.Bottom -> r.Geom.ury
    | Island.Horizontal, Density.Top -> r.Geom.lly
    | Island.Quadrant, _ -> Geom.width r
    | _ -> assert false
  in
  let check = corner_check ~sta ~sampler ~clock in
  let checks = ref 0 in
  let meets at_target t =
    incr checks;
    let region = region_of_t t in
    at_target ~raised:(fun cid ->
        Geom.contains region
          (Geom.point placement.Placement.xs.(cid) placement.Placement.ys.(cid)))
  in
  let extent = match direction with
    | Island.Vertical | Island.Quadrant -> Geom.width core
    | Island.Horizontal -> Geom.height core
  in
  let tol_t = tolerance_um /. extent in
  let grow at_target t_prev =
    if meets at_target t_prev then t_prev
    else if not (meets at_target 1.0) then raise Exit
    else begin
      (* Binary search for the minimal compensating fraction. *)
      let lo = ref t_prev and hi = ref 1.0 in
      while !hi -. !lo > tol_t do
        let mid = (!lo +. !hi) /. 2.0 in
        if meets at_target mid then hi := mid else lo := mid
      done;
      !hi
    end
  in
  let islands = ref [] in
  let cuts = ref [] in
  let t_prev = ref 0.0 in
  List.iteri
    (fun i target ->
      assert (target.scenario_index = i + 1);
      let systematic = Sampler.systematic_lgates sampler placement target.position in
      let t =
        try grow (check ~systematic) !t_prev
        with Exit ->
          raise
            (Infeasible
               (Printf.sprintf
                  "scenario %d at position %s not compensable even chip-wide"
                  target.scenario_index target.position.Position.label))
      in
      t_prev := t;
      let region = region_of_t t in
      cuts := cut_of_t t :: !cuts;
      islands :=
        {
          Island.index = target.scenario_index;
          region;
          cells = Island.cells_in placement region;
        }
        :: !islands)
    targets;
  {
    partition =
      {
        Island.direction;
        side;
        islands = Array.of_list (List.rev !islands);
        core;
      };
    cuts = Array.of_list (List.rev !cuts);
    checks = !checks;
  }
