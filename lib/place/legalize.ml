open Pvtol_netlist
module Geom = Pvtol_util.Geom

let widths (p : Placement.t) =
  Array.map
    (fun (c : Netlist.cell) -> Placement.cell_width c p.Placement.floorplan)
    p.Placement.netlist.Netlist.cells

(* Assign cells to rows near their global y, spilling from overfull rows
   to the nearest non-full neighbour. *)
let assign_rows (p : Placement.t) w =
  let fp = p.Placement.floorplan in
  let n_rows = fp.Floorplan.n_rows in
  let capacity = Floorplan.row_capacity fp in
  let fill = Array.make n_rows 0.0 in
  let rows = Array.make n_rows [] in
  let n = Array.length p.Placement.xs in
  let order = Array.init n (fun i -> i) in
  (* Stable processing order: by distance-insensitive id keeps runs
     deterministic; cells are placed into their preferred row when it
     has room, else the nearest row with room. *)
  Array.iter
    (fun i ->
      let prefer = Floorplan.row_of_y fp p.Placement.ys.(i) in
      let rec probe d =
        let lo = prefer - d and hi = prefer + d in
        let try_row r =
          r >= 0 && r < n_rows && fill.(r) +. w.(i) <= capacity
        in
        if try_row lo then lo
        else if try_row hi then hi
        else if lo < 0 && hi >= n_rows then
          (* Everything full (should not happen below 100% util):
             fall back to the least-filled row. *)
          let best = ref 0 in
          let () =
            for r = 1 to n_rows - 1 do
              if fill.(r) < fill.(!best) then best := r
            done
          in
          !best
        else probe (d + 1)
      in
      let r = probe 0 in
      fill.(r) <- fill.(r) +. w.(i);
      rows.(r) <- i :: rows.(r))
    order;
  rows

(* Abacus-lite within a row: left-to-right pass enforcing ordering and
   non-overlap, then a right-to-left pass pulling the tail back inside
   the row.  [padding] accumulates a whitespace debt that is paid out
   as discrete [quantum]-sized gaps, so the reserved ECO space is
   usable by real cells rather than fragmented into slivers. *)
let pack_row ?(padding = 0.0) ?(quantum = 6.0) (p : Placement.t) w row cells =
  let fp = p.Placement.floorplan in
  let core = fp.Floorplan.core in
  let site = fp.Floorplan.site_width in
  let y = Floorplan.row_y fp row +. (fp.Floorplan.row_height /. 2.0) in
  let cells = List.sort (fun a b -> compare p.Placement.xs.(a) p.Placement.xs.(b)) cells in
  let arr = Array.of_list cells in
  let n = Array.length arr in
  if n > 0 then begin
    let lefts = Array.make n 0.0 in
    let cursor = ref core.Geom.llx in
    let debt = ref 0.0 in
    for k = 0 to n - 1 do
      let i = arr.(k) in
      let desired = p.Placement.xs.(i) -. (w.(i) /. 2.0) in
      let snapped =
        core.Geom.llx
        +. (Float.round ((Float.max desired !cursor -. core.Geom.llx) /. site) *. site)
      in
      let x = Float.max snapped !cursor in
      lefts.(k) <- x;
      cursor := x +. w.(i);
      if padding > 0.0 then begin
        debt := !debt +. (w.(i) *. padding);
        if !debt >= quantum then begin
          cursor := !cursor +. !debt;
          debt := 0.0
        end
      end
    done;
    (* Pull back anything that ran past the right edge. *)
    let limit = ref core.Geom.urx in
    for k = n - 1 downto 0 do
      let i = arr.(k) in
      if lefts.(k) +. w.(i) > !limit then lefts.(k) <- !limit -. w.(i);
      limit := lefts.(k)
    done;
    for k = 0 to n - 1 do
      let i = arr.(k) in
      p.Placement.xs.(i) <- lefts.(k) +. (w.(i) /. 2.0);
      p.Placement.ys.(i) <- y
    done
  end

let run ?(padding = 0.0) p =
  let w = widths p in
  (* Capacity accounting sees the inflated footprints so rows keep room
     for their share of reserved gaps. *)
  let padded = Array.map (fun x -> x *. (1.0 +. padding)) w in
  let rows = assign_rows p padded in
  Array.iteri (fun r cells -> pack_row ~padding p w r cells) rows

let check (p : Placement.t) =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let fp = p.Placement.floorplan in
  let core = fp.Floorplan.core in
  let w = widths p in
  let by_row = Hashtbl.create 64 in
  Array.iteri
    (fun i _ ->
      let y = p.Placement.ys.(i) in
      let r = Floorplan.row_of_y fp y in
      let expect_y = Floorplan.row_y fp r +. (fp.Floorplan.row_height /. 2.0) in
      if Float.abs (y -. expect_y) > 1e-6 then err "cell %d not on a row center" i;
      let left = p.Placement.xs.(i) -. (w.(i) /. 2.0) in
      if left < core.Geom.llx -. 1e-6 || left +. w.(i) > core.Geom.urx +. 1e-6 then
        err "cell %d outside core" i;
      Hashtbl.replace by_row r
        ((i, left, left +. w.(i)) :: Option.value (Hashtbl.find_opt by_row r) ~default:[]))
    p.Placement.xs;
  Hashtbl.iter
    (fun r cells ->
      let sorted = List.sort (fun (_, l1, _) (_, l2, _) -> compare l1 l2) cells in
      let rec overlaps = function
        | (i1, _, r1) :: ((i2, l2, _) :: _ as rest) ->
          if r1 > l2 +. 1e-6 then err "row %d: cells %d and %d overlap" r i1 i2;
          overlaps rest
        | _ -> ()
      in
      overlaps sorted)
    by_row;
  match !errors with [] -> Ok () | es -> Error (List.rev es)
