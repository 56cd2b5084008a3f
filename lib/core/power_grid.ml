module Placement = Pvtol_place.Placement
module Geom = Pvtol_util.Geom

type result = {
  max_drop_mv : float;
  mean_drop_mv : float;
  supplied_bins : int;
  pad_bins : int;
  unreachable_bins : int;
  iterations : int;
}

(* Bins per core edge; ohm per strap segment. *)
let grid = 24
let strap_resistance = 2.0

let analyze ~placement ~member ~current_ma ~vdd =
  let core = placement.Placement.floorplan.Pvtol_place.Floorplan.core in
  let bw = Geom.width core /. float_of_int grid in
  let bh = Geom.height core /. float_of_int grid in
  let idx ix iy = (iy * grid) + ix in
  let in_domain = Array.make (grid * grid) false in
  let current = Array.make (grid * grid) 0.0 in
  let n_cells = Array.length placement.Placement.xs in
  for cid = 0 to n_cells - 1 do
    if member cid then begin
      let ix =
        max 0
          (min (grid - 1)
             (int_of_float ((placement.Placement.xs.(cid) -. core.Geom.llx) /. bw)))
      in
      let iy =
        max 0
          (min (grid - 1)
             (int_of_float ((placement.Placement.ys.(cid) -. core.Geom.lly) /. bh)))
      in
      in_domain.(idx ix iy) <- true;
      current.(idx ix iy) <- current.(idx ix iy) +. current_ma cid
    end
  done;
  (* Pads: domain bins on the core boundary. *)
  let is_pad = Array.make (grid * grid) false in
  let pad_bins = ref 0 in
  for ix = 0 to grid - 1 do
    for iy = 0 to grid - 1 do
      if
        in_domain.(idx ix iy)
        && (ix = 0 || iy = 0 || ix = grid - 1 || iy = grid - 1)
      then begin
        is_pad.(idx ix iy) <- true;
        incr pad_bins
      end
    done
  done;
  (* Reachability: flood from the pads along domain bins. *)
  let reachable = Array.make (grid * grid) false in
  let stack = Stack.create () in
  for i = 0 to (grid * grid) - 1 do
    if is_pad.(i) then begin
      reachable.(i) <- true;
      Stack.push i stack
    end
  done;
  let neighbours i =
    let ix = i mod grid and iy = i / grid in
    List.filter_map
      (fun (dx, dy) ->
        let jx = ix + dx and jy = iy + dy in
        if jx >= 0 && jy >= 0 && jx < grid && jy < grid then Some (idx jx jy)
        else None)
      [ (1, 0); (-1, 0); (0, 1); (0, -1) ]
  in
  while not (Stack.is_empty stack) do
    let i = Stack.pop stack in
    List.iter
      (fun j ->
        if in_domain.(j) && not reachable.(j) then begin
          reachable.(j) <- true;
          Stack.push j stack
        end)
      (neighbours i)
  done;
  let supplied = ref 0 and unreachable = ref 0 in
  Array.iteri
    (fun i d ->
      if d then if reachable.(i) then incr supplied else incr unreachable)
    in_domain;
  (* Gauss-Seidel on the reachable sub-grid: conductance g between
     adjacent reachable bins, pads pinned to vdd, bin currents drawn. *)
  let g = 1.0 /. strap_resistance in
  let v = Array.make (grid * grid) vdd in
  let iterations = ref 0 in
  let continue_ = ref true in
  while !continue_ && !iterations < 20_000 do
    incr iterations;
    let residual = ref 0.0 in
    for i = 0 to (grid * grid) - 1 do
      if reachable.(i) && not is_pad.(i) then begin
        let num = ref 0.0 and den = ref 0.0 in
        List.iter
          (fun j ->
            if reachable.(j) then begin
              num := !num +. (g *. v.(j));
              den := !den +. g
            end)
          (neighbours i);
        if !den > 0.0 then begin
          (* current in mA, resistance in ohm -> volts = mA * ohm / 1000 *)
          let v' = (!num -. (current.(i) /. 1000.0)) /. !den in
          residual := Float.max !residual (Float.abs (v' -. v.(i)));
          v.(i) <- v'
        end
      end
    done;
    if !residual < 1e-6 then continue_ := false
  done;
  let max_drop = ref 0.0 and sum_drop = ref 0.0 and n_drop = ref 0 in
  for i = 0 to (grid * grid) - 1 do
    if reachable.(i) then begin
      let drop = vdd -. v.(i) in
      if drop > !max_drop then max_drop := drop;
      sum_drop := !sum_drop +. drop;
      incr n_drop
    end
  done;
  {
    max_drop_mv = !max_drop *. 1000.0;
    mean_drop_mv =
      (if !n_drop = 0 then 0.0 else !sum_drop /. float_of_int !n_drop *. 1000.0);
    supplied_bins = !supplied;
    pad_bins = !pad_bins;
    unreachable_bins = !unreachable;
    iterations = !iterations;
  }
