open Pvtol_netlist
module Geom = Pvtol_util.Geom

type t = {
  netlist : Netlist.t;
  floorplan : Floorplan.t;
  xs : float array;
  ys : float array;
}

let create netlist floorplan =
  let n = Netlist.cell_count netlist in
  let c = Geom.center floorplan.Floorplan.core in
  {
    netlist;
    floorplan;
    xs = Array.make n c.Geom.x;
    ys = Array.make n c.Geom.y;
  }

let cell_width (c : Netlist.cell) (fp : Floorplan.t) =
  c.Netlist.cell.Pvtol_stdcell.Cell.area /. fp.Floorplan.row_height

(* Bounding box of a net's pins ([None] for dead or single-pin nets
   without a placed driver).  Pins are visited last sink first and
   driver last, straight from the net's arrays: no per-net point list. *)
let net_bbox t nid =
  let net = t.netlist.Netlist.nets.(nid) in
  let sinks = net.Netlist.sinks in
  let fanout = Array.length sinks in
  let first =
    if fanout > 0 then Some (fst sinks.(fanout - 1)) else net.Netlist.driver
  in
  match first with
  | None -> None
  | Some c0 ->
    let llx = ref t.xs.(c0) and lly = ref t.ys.(c0) in
    let urx = ref t.xs.(c0) and ury = ref t.ys.(c0) in
    let visit cid =
      let x = t.xs.(cid) and y = t.ys.(cid) in
      if x < !llx then llx := x;
      if x > !urx then urx := x;
      if y < !lly then lly := y;
      if y > !ury then ury := y
    in
    for i = fanout - 2 downto 0 do
      visit (fst sinks.(i))
    done;
    (match net.Netlist.driver with
    | Some d when fanout > 0 -> visit d
    | Some _ | None -> ());
    Some (Geom.rect ~llx:!llx ~lly:!lly ~urx:!urx ~ury:!ury)

let hpwl t nid =
  match net_bbox t nid with
  | None -> 0.0
  | Some r -> Geom.width r +. Geom.height r

let wire_length t nid =
  let fanout = Array.length t.netlist.Netlist.nets.(nid).Netlist.sinks in
  if fanout <= 1 then hpwl t nid
  else hpwl t nid *. (1.0 +. (0.35 *. (sqrt (float_of_int fanout) -. 1.0)))

let wire_lengths t = Array.init (Netlist.net_count t.netlist) (wire_length t)

let total_hpwl t =
  let acc = ref 0.0 in
  Array.iter (fun (n : Netlist.net) -> acc := !acc +. hpwl t n.Netlist.net_id) t.netlist.Netlist.nets;
  !acc
