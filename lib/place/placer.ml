open Pvtol_netlist
module Geom = Pvtol_util.Geom
module Srng = Pvtol_util.Srng

(* A bin's occupied area, infinite outside the grid (a wall). *)
let[@inline] occ (occupied : float array) nx ny ix iy =
  if ix < 0 || iy < 0 || ix >= nx || iy >= ny then infinity
  else occupied.((iy * nx) + ix)

let spread_step (p : Placement.t) =
  let fp = p.Placement.floorplan in
  let core = fp.Floorplan.core in
  let d = Density.compute p in
  let target = fp.Floorplan.utilization *. Density.bin_area d in
  let nx = d.Density.nx and ny = d.Density.ny in
  let occupied = d.Density.occupied in
  let bin_w = d.Density.bin_w and bin_h = d.Density.bin_h in
  let xs = p.Placement.xs and ys = p.Placement.ys in
  (* Clamp into the core with a small margin. *)
  let m = 0.1 in
  for i = 0 to Array.length xs - 1 do
    let ix = Density.clamp_bin nx (int_of_float ((xs.(i) -. core.Geom.llx) /. bin_w))
    and iy = Density.clamp_bin ny (int_of_float ((ys.(i) -. core.Geom.lly) /. bin_h)) in
    let here = occ occupied nx ny ix iy in
    if here > target then begin
      (* Push along the discrete density gradient, proportional to
         overflow, capped at one bin pitch. *)
      let gx = occ occupied nx ny (ix - 1) iy -. occ occupied nx ny (ix + 1) iy in
      let gy = occ occupied nx ny ix (iy - 1) -. occ occupied nx ny ix (iy + 1) in
      let norm = Float.hypot gx gy in
      if norm > 0.0 && Float.is_finite norm then begin
        let strength = Float.min 1.0 ((here -. target) /. target) in
        xs.(i) <- xs.(i) +. (gx /. norm *. strength *. bin_w);
        ys.(i) <- ys.(i) +. (gy /. norm *. strength *. bin_h)
      end
    end;
    xs.(i) <- Float.max (core.Geom.llx +. m) (Float.min (core.Geom.urx -. m) xs.(i));
    ys.(i) <- Float.max (core.Geom.lly +. m) (Float.min (core.Geom.ury -. m) ys.(i))
  done

(* [sum_x], [sum_y] and [cnt] are per-cell scratch, zeroed here, so
   the iterations share one set. *)
let damping = 0.6

let attraction_step (p : Placement.t) ~sum_x ~sum_y ~cnt =
  let nl = p.Placement.netlist in
  let ncells = Netlist.cell_count nl in
  let xs = p.Placement.xs and ys = p.Placement.ys in
  Array.fill sum_x 0 ncells 0.0;
  Array.fill sum_y 0 ncells 0.0;
  Array.fill cnt 0 ncells 0;
  let nets = nl.Netlist.nets in
  (* Star model: every pin of a net is attracted to the net's centroid,
     summed driver first, then the sinks in pin order. *)
  for j = 0 to Array.length nets - 1 do
    let net = nets.(j) in
    let sinks = net.Netlist.sinks in
    let cx = ref 0.0 and cy = ref 0.0 and k = ref 0 in
    (match net.Netlist.driver with
    | Some d ->
      cx := !cx +. xs.(d);
      cy := !cy +. ys.(d);
      incr k
    | None -> ());
    for s = 0 to Array.length sinks - 1 do
      let cid, _ = sinks.(s) in
      cx := !cx +. xs.(cid);
      cy := !cy +. ys.(cid);
      incr k
    done;
    if !k >= 2 then begin
      let cx = !cx /. float_of_int !k and cy = !cy /. float_of_int !k in
      (match net.Netlist.driver with
      | Some d ->
        sum_x.(d) <- sum_x.(d) +. cx;
        sum_y.(d) <- sum_y.(d) +. cy;
        cnt.(d) <- cnt.(d) + 1
      | None -> ());
      for s = 0 to Array.length sinks - 1 do
        let cid, _ = sinks.(s) in
        sum_x.(cid) <- sum_x.(cid) +. cx;
        sum_y.(cid) <- sum_y.(cid) +. cy;
        cnt.(cid) <- cnt.(cid) + 1
      done
    end
  done;
  for i = 0 to ncells - 1 do
    if cnt.(i) > 0 then begin
      let tx = sum_x.(i) /. float_of_int cnt.(i) in
      let ty = sum_y.(i) /. float_of_int cnt.(i) in
      xs.(i) <- (damping *. tx) +. ((1.0 -. damping) *. xs.(i));
      ys.(i) <- (damping *. ty) +. ((1.0 -. damping) *. ys.(i))
    end
  done

(* Initial placement: recursive area bisection over functional-unit
   groups (a treemap), then random scatter within each group's tile.
   Connectivity is mostly intra-unit, so this starts the force-directed
   refinement close to a good basin; the attraction iterations then
   interleave cells near unit boundaries. *)
let init_by_unit (p : Placement.t) rng =
  let nl = p.Placement.netlist in
  let core = p.Placement.floorplan.Floorplan.core in
  let groups = Hashtbl.create 64 in
  Array.iter
    (fun (c : Netlist.cell) ->
      let key = c.Netlist.unit_name in
      let cells, area =
        Option.value (Hashtbl.find_opt groups key) ~default:([], 0.0)
      in
      Hashtbl.replace groups key
        (c.Netlist.id :: cells, area +. c.Netlist.cell.Pvtol_stdcell.Cell.area))
    nl.Netlist.cells;
  let glist =
    Hashtbl.fold (fun k (cells, area) acc -> (k, cells, area) :: acc) groups []
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  let scatter (rect : Geom.rect) cells =
    List.iter
      (fun i ->
        p.Placement.xs.(i) <- rect.Geom.llx +. Srng.float rng (Geom.width rect);
        p.Placement.ys.(i) <- rect.Geom.lly +. Srng.float rng (Geom.height rect))
      cells
  in
  let rec split rect = function
    | [] -> ()
    | [ (_, cells, _) ] -> scatter rect cells
    | gs ->
      let total = List.fold_left (fun acc (_, _, a) -> acc +. a) 0.0 gs in
      (* Greedy half-split by area. *)
      let rec take acc_area acc = function
        | [] -> (List.rev acc, [])
        | ((_, _, a) as g) :: rest ->
          if acc_area +. a > total /. 2.0 && acc <> [] then (List.rev acc, g :: rest)
          else take (acc_area +. a) (g :: acc) rest
      in
      let first, second = take 0.0 [] gs in
      let frac =
        List.fold_left (fun acc (_, _, a) -> acc +. a) 0.0 first /. total
      in
      let r1, r2 =
        if Geom.width rect >= Geom.height rect then begin
          let xm = rect.Geom.llx +. (frac *. Geom.width rect) in
          ( Geom.rect ~llx:rect.Geom.llx ~lly:rect.Geom.lly ~urx:xm ~ury:rect.Geom.ury,
            Geom.rect ~llx:xm ~lly:rect.Geom.lly ~urx:rect.Geom.urx ~ury:rect.Geom.ury )
        end
        else begin
          let ym = rect.Geom.lly +. (frac *. Geom.height rect) in
          ( Geom.rect ~llx:rect.Geom.llx ~lly:rect.Geom.lly ~urx:rect.Geom.urx ~ury:ym,
            Geom.rect ~llx:rect.Geom.llx ~lly:ym ~urx:rect.Geom.urx ~ury:rect.Geom.ury )
        end
      in
      split r1 first;
      split r2 second
  in
  split core glist

let global_only ?(iterations = 48) ?(seed = 1) nl fp =
  let p = Placement.create nl fp in
  let rng = Srng.create seed in
  init_by_unit p rng;
  let ncells = Netlist.cell_count nl in
  let sum_x = Array.make ncells 0.0
  and sum_y = Array.make ncells 0.0
  and cnt = Array.make ncells 0 in
  for _ = 1 to iterations do
    attraction_step p ~sum_x ~sum_y ~cnt;
    spread_step p
  done;
  p

let place ?iterations ?seed ?padding nl fp =
  let p = global_only ?iterations ?seed nl fp in
  Legalize.run ?padding p;
  p
