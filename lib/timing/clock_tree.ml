open Pvtol_netlist
module Cell_lib = Pvtol_stdcell.Cell
module Placement = Pvtol_place.Placement

type t = {
  insertion_delay : (Netlist.cell_id * float) list;
  offsets : float array;
  skew : float;
  n_buffers : int;
  wirelength : float;
  levels : int;
}

(* Flops per leaf cluster. *)
let max_leaves = 16

let synthesize (p : Placement.t) ~flops =
  let nl = p.Placement.netlist in
  let lib = nl.Netlist.lib in
  let buf = Cell_lib.find lib Pvtol_stdcell.Kind.Buf Cell_lib.X4 in
  let clk_pin_cap = 1.4 in
  let n_buffers = ref 0 in
  let wirelength = ref 0.0 in
  let max_levels = ref 0 in
  let delays = ref [] in
  let xs = p.Placement.xs and ys = p.Placement.ys in
  let centroid ids =
    let n = float_of_int (Array.length ids) in
    let cx = Array.fold_left (fun a i -> a +. xs.(i)) 0.0 ids /. n in
    let cy = Array.fold_left (fun a i -> a +. ys.(i)) 0.0 ids /. n in
    (cx, cy)
  in
  (* Build top-down; [acc] is the insertion delay accumulated above the
     current node (whose driver buffer sits at (px, py)). *)
  let rec build ids (px, py) acc level =
    if level > !max_levels then max_levels := level;
    let cx, cy = centroid ids in
    let wire = Float.abs (cx -. px) +. Float.abs (cy -. py) in
    wirelength := !wirelength +. wire;
    if Array.length ids <= max_leaves then begin
      (* Leaf buffer drives the flops' clock pins directly. *)
      incr n_buffers;
      let load =
        (float_of_int (Array.length ids) *. clk_pin_cap)
        +. (lib.Cell_lib.wire_cap_per_um
           *. Array.fold_left
                (fun a i -> a +. Float.abs (xs.(i) -. cx) +. Float.abs (ys.(i) -. cy))
                0.0 ids)
      in
      let d_buf = buf.Cell_lib.d0 +. (buf.Cell_lib.drive_res *. load) in
      Array.iter
        (fun i ->
          let leaf_wire = Float.abs (xs.(i) -. cx) +. Float.abs (ys.(i) -. cy) in
          wirelength := !wirelength +. leaf_wire;
          let d =
            acc
            +. (lib.Cell_lib.wire_delay_per_um *. wire)
            +. d_buf
            +. (lib.Cell_lib.wire_delay_per_um *. leaf_wire)
          in
          delays := (i, d) :: !delays)
        ids
    end
    else begin
      (* Split on the longer bounding-box axis at the median. *)
      let by_x =
        let lo = Array.fold_left (fun a i -> Float.min a xs.(i)) infinity ids in
        let hi = Array.fold_left (fun a i -> Float.max a xs.(i)) neg_infinity ids in
        let lo_y = Array.fold_left (fun a i -> Float.min a ys.(i)) infinity ids in
        let hi_y = Array.fold_left (fun a i -> Float.max a ys.(i)) neg_infinity ids in
        hi -. lo >= hi_y -. lo_y
      in
      let sorted = Array.copy ids in
      Array.sort
        (fun a b -> compare (if by_x then xs.(a) else ys.(a)) (if by_x then xs.(b) else ys.(b)))
        sorted;
      let mid = Array.length sorted / 2 in
      let left = Array.sub sorted 0 mid in
      let right = Array.sub sorted mid (Array.length sorted - mid) in
      incr n_buffers;
      (* This node's buffer drives two child buffers plus the branch
         wires. *)
      let lx, ly = centroid left and rx, ry = centroid right in
      let branch_wire =
        Float.abs (lx -. cx) +. Float.abs (ly -. cy)
        +. Float.abs (rx -. cx) +. Float.abs (ry -. cy)
      in
      let load =
        (2.0 *. buf.Cell_lib.input_cap)
        +. (lib.Cell_lib.wire_cap_per_um *. branch_wire)
      in
      let d_buf = buf.Cell_lib.d0 +. (buf.Cell_lib.drive_res *. load) in
      let acc' = acc +. (lib.Cell_lib.wire_delay_per_um *. wire) +. d_buf in
      build left (cx, cy) acc' (level + 1);
      build right (cx, cy) acc' (level + 1)
    end
  in
  assert (Array.length flops > 0);
  let root = centroid flops in
  build flops root 0.0 1;
  let delays = List.rev !delays in
  let lo = List.fold_left (fun a (_, d) -> Float.min a d) infinity delays in
  let hi = List.fold_left (fun a (_, d) -> Float.max a d) neg_infinity delays in
  (* Dense per-cell offset map, normalized to the earliest leaf, built
     once here: skew lookups in per-die settle loops are O(1) array
     reads instead of an assoc-list scan (or a per-call hashtable
     rebuild) over every flop. *)
  let offsets = Array.make (Netlist.cell_count nl) 0.0 in
  List.iter (fun (i, d) -> offsets.(i) <- d -. lo) delays;
  {
    insertion_delay = delays;
    offsets;
    skew = hi -. lo;
    n_buffers = !n_buffers;
    wirelength = !wirelength;
    levels = !max_levels;
  }

let skew_of t =
  let offsets = t.offsets in
  let n = Array.length offsets in
  fun cid -> if cid >= 0 && cid < n then offsets.(cid) else 0.0
