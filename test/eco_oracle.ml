(* Reference of [Incremental.insert]'s ECO placement.

   The library keeps each row's free gaps in sorted arrays under a
   max-width tree and searches outward from the target.  This is the
   list version it replaced, kept as it was: every row visited folds
   over its whole gap list, and taking a span rebuilds the list.  Tests
   hold the library's placements and statistics to it, Marshal-equal. *)

open Pvtol_netlist
open Pvtol_place
module Geom = Pvtol_util.Geom

module Gaps = struct
  let build (p : Placement.t) n_placed =
    let fp = p.Placement.floorplan in
    let core = fp.Floorplan.core in
    let by_row = Array.make fp.Floorplan.n_rows [] in
    for i = 0 to n_placed - 1 do
      let c = p.Placement.netlist.Netlist.cells.(i) in
      let w = Placement.cell_width c fp in
      let r = Floorplan.row_of_y fp p.Placement.ys.(i) in
      let left = p.Placement.xs.(i) -. (w /. 2.0) in
      by_row.(r) <- (left, left +. w) :: by_row.(r)
    done;
    Array.map
      (fun occupied ->
        let sorted = List.sort compare occupied in
        let rec gaps cursor = function
          | [] ->
            if core.Geom.urx -. cursor > 1e-9 then [ (cursor, core.Geom.urx) ]
            else []
          | (l, r) :: rest ->
            let tail = gaps (Float.max cursor r) rest in
            if l -. cursor > 1e-9 then (cursor, l) :: tail else tail
        in
        gaps core.Geom.llx sorted)
      by_row

  (* Best position for a width-[w] cell near [x] within a gap list;
     returns (cost, position) of the closest fit. *)
  let best_in_row gaps ~x ~w =
    List.fold_left
      (fun acc (l, r) ->
        if r -. l >= w then begin
          let pos = Float.max (l +. (w /. 2.0)) (Float.min (r -. (w /. 2.0)) x) in
          let cost = Float.abs (pos -. x) in
          match acc with
          | Some (c, _) when c <= cost -> acc
          | _ -> Some (cost, pos)
        end
        else acc)
      None gaps

  let take gaps_row ~pos ~w =
    let left = pos -. (w /. 2.0) and right = pos +. (w /. 2.0) in
    List.concat_map
      (fun (l, r) ->
        if right <= l || left >= r then [ (l, r) ]
        else
          (if left -. l > 1e-9 then [ (l, left) ] else [])
          @ if r -. right > 1e-9 then [ (right, r) ] else [])
      gaps_row
end

let insert (old_p : Placement.t) (nl : Netlist.t) ~desired =
  let n_old = Netlist.cell_count old_p.Placement.netlist in
  let n_new = Netlist.cell_count nl in
  assert (n_new >= n_old);
  let fp = old_p.Placement.floorplan in
  let p =
    {
      Placement.netlist = nl;
      floorplan = fp;
      xs = Array.make n_new 0.0;
      ys = Array.make n_new 0.0;
    }
  in
  Array.blit old_p.Placement.xs 0 p.Placement.xs 0 n_old;
  Array.blit old_p.Placement.ys 0 p.Placement.ys 0 n_old;
  let gaps = Gaps.build old_p n_old in
  let n_rows = fp.Floorplan.n_rows in
  let total = ref 0.0 and worst = ref 0.0 in
  for i = n_old to n_new - 1 do
    let target = desired i in
    let w = Placement.cell_width nl.Netlist.cells.(i) fp in
    let prefer = Floorplan.row_of_y fp target.Geom.y in
    (* Branch-and-bound over rows outward from the preferred one: a row
       [ring] rows away costs at least [ring * row_height], so the
       search stops once that lower bound exceeds the best found. *)
    let found = ref None in
    let ring = ref 0 in
    let continue_search () =
      !ring < n_rows
      &&
      match !found with
      | None -> true
      | Some (c, _, _) -> float_of_int !ring *. fp.Floorplan.row_height < c
    in
    while continue_search () do
      let try_row r =
        if r >= 0 && r < n_rows then
          match Gaps.best_in_row gaps.(r) ~x:target.Geom.x ~w with
          | Some (cost, pos) ->
            let dy =
              Float.abs
                (Floorplan.row_y fp r +. (fp.Floorplan.row_height /. 2.0)
                -. target.Geom.y)
            in
            let cost = cost +. dy in
            (match !found with
            | Some (c, _, _) when c <= cost -> ()
            | _ -> found := Some (cost, r, pos))
          | None -> ()
      in
      if !ring = 0 then try_row prefer
      else begin
        try_row (prefer - !ring);
        try_row (prefer + !ring)
      end;
      incr ring
    done;
    match !found with
    | None -> failwith "Incremental.insert: no free space in any row"
    | Some (cost, r, pos) ->
      gaps.(r) <- Gaps.take gaps.(r) ~pos ~w;
      p.Placement.xs.(i) <- pos;
      p.Placement.ys.(i) <- Floorplan.row_y fp r +. (fp.Floorplan.row_height /. 2.0);
      total := !total +. cost;
      if cost > !worst then worst := cost
  done;
  let inserted = n_new - n_old in
  ( p,
    {
      Incremental.inserted;
      moved = 0;
      mean_displacement =
        (if inserted = 0 then 0.0 else !total /. float_of_int inserted);
      max_displacement = !worst;
    } )
