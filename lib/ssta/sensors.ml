open Pvtol_netlist
module Sta = Pvtol_timing.Sta

type site = {
  endpoint : Netlist.cell_id;
  stage : Stage.t;
  criticality : float;
}

type plan = {
  sites : site list;
  per_stage : (Stage.t * int) list;
  area_overhead : float;
  area_overhead_frac : float;
}

(* Extra area of a Razor flop over a plain flop: shadow latch,
   metastability detector and restore mux. *)
let razor_area_factor = 0.7

let select ?(min_criticality = 0.01) (mc : Monte_carlo.result) sta =
  let nl = Sta.netlist sta in
  let total_samples =
    match mc.Monte_carlo.stages with
    | s :: _ -> Array.length s.Monte_carlo.samples
    | [] -> 1
  in
  let sites =
    Hashtbl.fold
      (fun cid count acc ->
        let crit = float_of_int count /. float_of_int total_samples in
        if crit >= min_criticality then
          (* Every counted endpoint is some stage's endpoint. *)
          let stage = Option.get (Sta.capture_stage_of sta cid) in
          { endpoint = cid; stage; criticality = crit } :: acc
        else acc)
      mc.Monte_carlo.endpoint_critical_count []
    |> List.sort (fun a b -> compare b.criticality a.criticality)
  in
  let per_stage =
    List.filter_map
      (fun s ->
        let n = List.length (List.filter (fun site -> Stage.equal site.stage s) sites) in
        if n > 0 then Some (s, n) else None)
      Stage.all
  in
  let area_overhead =
    List.fold_left
      (fun acc site ->
        acc
        +. razor_area_factor
           *. nl.Netlist.cells.(site.endpoint).Netlist.cell.Pvtol_stdcell.Cell.area)
      0.0 sites
  in
  {
    sites;
    per_stage;
    area_overhead;
    area_overhead_frac = area_overhead /. Netlist.area nl;
  }
