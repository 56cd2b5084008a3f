module Geom = Pvtol_util.Geom

type t = {
  core : Geom.rect;
  row_height : float;
  site_width : float;
  n_rows : int;
  utilization : float;
}

(* um *)
let row_height = 1.8
let site_width = 0.2

let create ?(utilization = 0.70) ~cell_area () =
  assert (cell_area > 0.0 && utilization > 0.0 && utilization <= 1.0);
  let total = cell_area /. utilization in
  let height = sqrt total in
  let n_rows = max 1 (int_of_float (Float.ceil (height /. row_height))) in
  let height = float_of_int n_rows *. row_height in
  let width_raw = total /. height in
  (* Snap width to a whole number of sites. *)
  let n_sites = max 1 (int_of_float (Float.ceil (width_raw /. site_width))) in
  let width = float_of_int n_sites *. site_width in
  {
    core = Geom.rect ~llx:0.0 ~lly:0.0 ~urx:width ~ury:height;
    row_height;
    site_width;
    n_rows;
    utilization;
  }

let row_y t i = t.core.Geom.lly +. (float_of_int i *. t.row_height)

let row_of_y t y =
  let i = int_of_float ((y -. t.core.Geom.lly) /. t.row_height) in
  max 0 (min (t.n_rows - 1) i)

let row_capacity t = Geom.width t.core
