open Pvtol_netlist
module Sta = Pvtol_timing.Sta
module Sampler = Pvtol_variation.Sampler
module Placement = Pvtol_place.Placement

type t = {
  domains : int array;
  units_per_scenario : string list array;
}

exception Infeasible of string

let generate ~sta ~placement ~sampler ~clock ~targets =
  let nl = Sta.netlist sta in
  let n = Netlist.cell_count nl in
  (* Unit ranking: worst nominal arrival over the unit's output nets —
     units holding late-path logic first. *)
  let nominal = Sta.analyze sta ~delays:(Sta.nominal_delays sta) in
  let unit_score = Hashtbl.create 64 in
  Array.iter
    (fun (c : Netlist.cell) ->
      let u = c.Netlist.unit_name in
      let a = nominal.Sta.arrival.(c.Netlist.fanout) in
      let cur = Option.value (Hashtbl.find_opt unit_score u) ~default:0.0 in
      if a > cur then Hashtbl.replace unit_score u a)
    nl.Netlist.cells;
  let ranked_units =
    Hashtbl.fold (fun u s acc -> (u, s) :: acc) unit_score []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> List.map fst
  in
  let cells_of_unit = Hashtbl.create 64 in
  Array.iter
    (fun (c : Netlist.cell) ->
      Hashtbl.replace cells_of_unit c.Netlist.unit_name
        (c.Netlist.id
        :: Option.value (Hashtbl.find_opt cells_of_unit c.Netlist.unit_name)
             ~default:[]))
    nl.Netlist.cells;
  let domains = Array.make n (List.length targets + 1) in
  let raised_units = Hashtbl.create 16 in
  let check = Slicing.corner_check ~sta ~sampler ~clock in
  let meets at_target k = at_target ~raised:(fun cid -> domains.(cid) <= k) in
  let units_per_scenario = Array.make (List.length targets) [] in
  List.iteri
    (fun i (target : Slicing.target) ->
      let k = target.Slicing.scenario_index in
      assert (k = i + 1);
      let at_target =
        check
          ~systematic:
            (Sampler.systematic_lgates sampler placement target.Slicing.position)
      in
      let rec add_units = function
        | [] ->
          if not (meets at_target k) then
            raise
              (Infeasible
                 (Printf.sprintf "scenario %d not compensable by unit selection" k))
        | u :: rest ->
          if meets at_target k then ()
          else begin
            if not (Hashtbl.mem raised_units u) then begin
              Hashtbl.replace raised_units u ();
              units_per_scenario.(i) <- u :: units_per_scenario.(i);
              List.iter
                (fun cid -> domains.(cid) <- k)
                (Option.value (Hashtbl.find_opt cells_of_unit u) ~default:[])
            end;
            add_units rest
          end
      in
      add_units ranked_units;
      if not (meets at_target k) then
        raise
          (Infeasible
             (Printf.sprintf "scenario %d not compensable by unit selection" k)))
    targets;
  { domains; units_per_scenario }

let fragmentation (p : Placement.t) ~domains ~raised =
  let grid = 24 in
  let core = p.Placement.floorplan.Pvtol_place.Floorplan.core in
  let w = Pvtol_util.Geom.width core /. float_of_int grid in
  let h = Pvtol_util.Geom.height core /. float_of_int grid in
  let high = Array.make_matrix grid grid 0 in
  let any = Array.make_matrix grid grid 0 in
  Array.iteri
    (fun cid d ->
      let ix =
        max 0
          (min (grid - 1)
             (int_of_float ((p.Placement.xs.(cid) -. core.Pvtol_util.Geom.llx) /. w)))
      in
      let iy =
        max 0
          (min (grid - 1)
             (int_of_float ((p.Placement.ys.(cid) -. core.Pvtol_util.Geom.lly) /. h)))
      in
      any.(ix).(iy) <- any.(ix).(iy) + 1;
      if d <= raised then high.(ix).(iy) <- high.(ix).(iy) + 1)
    domains;
  (* A bin belongs to the high-Vdd region when most of its cells are
     raised; count 8-connected components over those bins. *)
  let member = Array.make_matrix grid grid false in
  for ix = 0 to grid - 1 do
    for iy = 0 to grid - 1 do
      member.(ix).(iy) <- any.(ix).(iy) > 0 && 2 * high.(ix).(iy) > any.(ix).(iy)
    done
  done;
  let seen = Array.make_matrix grid grid false in
  let components = ref 0 in
  let rec flood ix iy =
    if
      ix >= 0 && iy >= 0 && ix < grid && iy < grid
      && member.(ix).(iy)
      && not seen.(ix).(iy)
    then begin
      seen.(ix).(iy) <- true;
      for dx = -1 to 1 do
        for dy = -1 to 1 do
          if dx <> 0 || dy <> 0 then flood (ix + dx) (iy + dy)
        done
      done
    end
  in
  for ix = 0 to grid - 1 do
    for iy = 0 to grid - 1 do
      if member.(ix).(iy) && not seen.(ix).(iy) then begin
        incr components;
        flood ix iy
      end
    done
  done;
  !components
