module Geom = Pvtol_util.Geom
open Pvtol_netlist

type t = {
  nx : int;
  ny : int;
  bin_w : float;
  bin_h : float;
  occupied : float array;
}

let[@inline] clamp_bin n b = if b < 0 then 0 else if b > n - 1 then n - 1 else b

let compute (p : Placement.t) =
  let nx = 32 and ny = 32 in
  let core = p.Placement.floorplan.Floorplan.core in
  let bin_w = Geom.width core /. float_of_int nx in
  let bin_h = Geom.height core /. float_of_int ny in
  let occupied = Array.make (nx * ny) 0.0 in
  let cells = p.Placement.netlist.Netlist.cells in
  let xs = p.Placement.xs and ys = p.Placement.ys in
  for i = 0 to Array.length cells - 1 do
    let bx = clamp_bin nx (int_of_float ((xs.(i) -. core.Geom.llx) /. bin_w)) in
    let by = clamp_bin ny (int_of_float ((ys.(i) -. core.Geom.lly) /. bin_h)) in
    let b = (by * nx) + bx in
    occupied.(b) <- occupied.(b) +. cells.(i).Netlist.cell.Pvtol_stdcell.Cell.area
  done;
  { nx; ny; bin_w; bin_h; occupied }

let bin_area t = t.bin_w *. t.bin_h

type side = Left | Right | Bottom | Top

let side_name = function
  | Left -> "left"
  | Right -> "right"
  | Bottom -> "bottom"
  | Top -> "top"
