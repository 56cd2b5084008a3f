open Pvtol_netlist
module Geom = Pvtol_util.Geom
module Density = Pvtol_place.Density
module Placement = Pvtol_place.Placement

type direction = Horizontal | Vertical | Quadrant

type t = {
  index : int;
  region : Geom.rect;
  cells : Netlist.cell_id array;
}

type partition = {
  direction : direction;
  side : Density.side;
  islands : t array;
  core : Geom.rect;
}

let direction_name = function
  | Horizontal -> "horizontal"
  | Vertical -> "vertical"
  | Quadrant -> "quadrant"

let slice_region ~core direction side ~cut =
  match (direction, side) with
  | Vertical, Density.Left ->
    Geom.rect ~llx:core.Geom.llx ~lly:core.Geom.lly ~urx:cut ~ury:core.Geom.ury
  | Vertical, Density.Right ->
    Geom.rect ~llx:cut ~lly:core.Geom.lly ~urx:core.Geom.urx ~ury:core.Geom.ury
  | Horizontal, Density.Bottom ->
    Geom.rect ~llx:core.Geom.llx ~lly:core.Geom.lly ~urx:core.Geom.urx ~ury:cut
  | Horizontal, Density.Top ->
    Geom.rect ~llx:core.Geom.llx ~lly:cut ~urx:core.Geom.urx ~ury:core.Geom.ury
  | Vertical, (Density.Bottom | Density.Top)
  | Horizontal, (Density.Left | Density.Right) ->
    invalid_arg "Island.slice_region: side incompatible with direction"
  | Quadrant, _ ->
    invalid_arg "Island.slice_region: use region_of_fraction for Quadrant"

let region_of_fraction ~core direction side ~t =
  assert (t >= 0.0 && t <= 1.0);
  let w = Geom.width core and h = Geom.height core in
  match direction with
  | Vertical ->
    let cut =
      match side with
      | Density.Left -> core.Geom.llx +. (t *. w)
      | Density.Right -> core.Geom.urx -. (t *. w)
      | _ -> invalid_arg "Island.region_of_fraction: side/direction"
    in
    slice_region ~core direction side ~cut
  | Horizontal ->
    let cut =
      match side with
      | Density.Bottom -> core.Geom.lly +. (t *. h)
      | Density.Top -> core.Geom.ury -. (t *. h)
      | _ -> invalid_arg "Island.region_of_fraction: side/direction"
    in
    slice_region ~core direction side ~cut
  | Quadrant ->
    (* The fraction applies to both axes so the covered AREA is t^2 at
       t; sqrt makes the growth linear in area like the slab cases. *)
    let s = sqrt t in
    let dw = s *. w and dh = s *. h in
    (match side with
    | Density.Left ->
      Geom.rect ~llx:core.Geom.llx ~lly:core.Geom.lly
        ~urx:(core.Geom.llx +. dw) ~ury:(core.Geom.lly +. dh)
    | Density.Right ->
      Geom.rect ~llx:(core.Geom.urx -. dw) ~lly:(core.Geom.ury -. dh)
        ~urx:core.Geom.urx ~ury:core.Geom.ury
    | Density.Bottom ->
      Geom.rect ~llx:(core.Geom.urx -. dw) ~lly:core.Geom.lly
        ~urx:core.Geom.urx ~ury:(core.Geom.lly +. dh)
    | Density.Top ->
      Geom.rect ~llx:core.Geom.llx ~lly:(core.Geom.ury -. dh)
        ~urx:(core.Geom.llx +. dw) ~ury:core.Geom.ury)

let cells_in (p : Placement.t) region =
  let acc = ref [] in
  let n = Array.length p.Placement.xs in
  for i = n - 1 downto 0 do
    if Geom.contains region (Geom.point p.Placement.xs.(i) p.Placement.ys.(i))
    then acc := i :: !acc
  done;
  Array.of_list !acc

let domain_of_point partition pt =
  let n = Array.length partition.islands in
  let rec find k =
    if k >= n then n + 1
    else if Geom.contains partition.islands.(k).region pt then k + 1
    else find (k + 1)
  in
  find 0

let domains partition (p : Placement.t) =
  Array.init (Array.length p.Placement.xs) (fun i ->
      domain_of_point partition
        (Geom.point p.Placement.xs.(i) p.Placement.ys.(i)))

let vdd_assignment ~domains ~raised ~lib cid =
  let process = lib.Pvtol_stdcell.Cell.process in
  if domains.(cid) <= raised then process.Pvtol_stdcell.Process.vdd_high
  else process.Pvtol_stdcell.Process.vdd_low

let area_fraction partition k =
  assert (k >= 1 && k <= Array.length partition.islands);
  Geom.area partition.islands.(k - 1).region /. Geom.area partition.core
