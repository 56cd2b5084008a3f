open Pvtol_netlist
module Geom = Pvtol_util.Geom
module Placement = Pvtol_place.Placement
module Incremental = Pvtol_place.Incremental
module Cell_lib = Pvtol_stdcell.Cell
module Kind = Pvtol_stdcell.Kind
module Metrics = Pvtol_util.Metrics

let m_shifters = Metrics.counter "level_shifters_inserted_total"

type t = {
  netlist : Netlist.t;
  placement : Placement.t;
  partition : Island.partition;
  domains : int array;
  first_ls : Netlist.cell_id;
  count : int;
  per_domain : (int * int) list;
  ls_area : float;
  ls_area_frac : float;
  displacement : Incremental.stats;
}

(* Crossing analysis: a net needs a shifter when its driver sits in a
   raised island (domain > 1) and some sink is in a domain raised
   strictly earlier.  Primary-input nets come from full-swing off-core
   pads, so they never need one. *)
let domain_crossings (nl : Netlist.t) domains =
  let result = ref [] in
  Array.iter
    (fun (net : Netlist.net) ->
      let driver_domain =
        match net.Netlist.driver with
        | Some d -> domains.(d)
        | None -> 0
      in
      if driver_domain > 1 then begin
        (* All sinks in strictly earlier domains share one shifter: the
           islands are nested and raised in index order, so a shifter
           supplied by the earliest (lowest-index) sink domain has its
           high rail up whenever any served sink's domain is up. *)
        let sinks = ref [] in
        let min_domain = ref max_int in
        Array.iter
          (fun (cid, pin) ->
            let dd = domains.(cid) in
            if dd < driver_domain then begin
              sinks := (cid, pin) :: !sinks;
              if dd < !min_domain then min_domain := dd
            end)
          net.Netlist.sinks;
        if !sinks <> [] then
          result := (net.Netlist.net_id, !min_domain, !sinks) :: !result
      end)
    nl.Netlist.nets;
  List.rev !result

let count_domain_crossings nl ~domains =
  List.length (domain_crossings nl domains)

let count_crossings partition placement nl =
  count_domain_crossings nl ~domains:(Island.domains partition placement)

let insert partition placement (nl : Netlist.t) =
  let pre_domains = Island.domains partition placement in
  let cs = domain_crossings nl pre_domains in
  let n_old_cells = Netlist.cell_count nl in
  let n_old_nets = Netlist.net_count nl in
  (* Shifter drive strength follows the fanout it re-drives, as a
     buffer would be sized. *)
  let ls_template fanout =
    let drive =
      if fanout <= 4 then Cell_lib.X1
      else if fanout <= 12 then Cell_lib.X2
      else Cell_lib.X4
    in
    Cell_lib.find nl.Netlist.lib Kind.Ls drive
  in
  let n_ls = List.length cs in
  Metrics.add m_shifters n_ls;
  (* Mutable copies for surgery. *)
  let cells =
    Array.init (n_old_cells + n_ls) (fun i ->
        if i < n_old_cells then
          let c = nl.Netlist.cells.(i) in
          { c with fanins = Array.copy c.Netlist.fanins }
        else nl.Netlist.cells.(0) (* placeholder, overwritten below *))
  in
  let net_sinks =
    Array.init (n_old_nets + n_ls) (fun i ->
        if i < n_old_nets then
          ref (Array.to_list nl.Netlist.nets.(i).Netlist.sinks)
        else ref [])
  in
  let ls_positions = Array.make n_ls (Geom.point 0.0 0.0) in
  List.iteri
    (fun k (net_id, _domain, sinks) ->
      let ls_id = n_old_cells + k in
      let ls_net = n_old_nets + k in
      (* The shifter takes over the listed sinks: rewire them, then keep
         on the net the sinks still reading it. *)
      List.iter
        (fun (cid, pin) -> cells.(cid).Netlist.fanins.(pin) <- ls_net)
        sinks;
      net_sinks.(net_id) :=
        (ls_id, 0)
        :: List.filter
             (fun (cid, pin) -> cells.(cid).Netlist.fanins.(pin) = net_id)
             !(net_sinks.(net_id));
      net_sinks.(ls_net) := sinks;
      (* Tag the shifter with the stage of the logic it feeds. *)
      let rep = fst (List.hd sinks) in
      cells.(ls_id) <-
        {
          Netlist.id = ls_id;
          name = Printf.sprintf "ls%d" k;
          cell = ls_template (List.length sinks);
          stage = nl.Netlist.cells.(rep).Netlist.stage;
          unit_name = "level_shifter";
          fanins = [| net_id |];
          fanout = ls_net;
        };
      (* Target position: the sink nearest the driver among those in
         the shifter's own (earliest-raised) domain — the point where
         the net first enters that domain, which is where a boundary
         level shifter physically belongs.  Targets inherit the sinks'
         spread, so thousands of shifters do not contend for the same
         whitespace (a group centroid would pile them all onto one
         spot). *)
      let dxy =
        match nl.Netlist.nets.(net_id).Netlist.driver with
        | Some d -> Geom.point placement.Placement.xs.(d) placement.Placement.ys.(d)
        | None -> Geom.point 0.0 0.0
      in
      let in_home (cid, _) = pre_domains.(cid) = _domain in
      let candidates =
        match List.filter in_home sinks with [] -> sinks | l -> l
      in
      let pick, _ =
        List.fold_left
          (fun ((_, best) as acc) (cid, _) ->
            let dist =
              Geom.dist dxy
                (Geom.point placement.Placement.xs.(cid) placement.Placement.ys.(cid))
            in
            if dist < best then (cid, dist) else acc)
          (fst (List.hd candidates), infinity)
          candidates
      in
      ls_positions.(k) <-
        Geom.point placement.Placement.xs.(pick) placement.Placement.ys.(pick))
    cs;
  let nets =
    Array.init (n_old_nets + n_ls) (fun i ->
        if i < n_old_nets then
          {
            nl.Netlist.nets.(i) with
            Netlist.sinks = Array.of_list !(net_sinks.(i));
          }
        else
          {
            Netlist.net_id = i;
            net_name = Printf.sprintf "ls%d_o" (i - n_old_nets);
            driver = Some (n_old_cells + i - n_old_nets);
            sinks = Array.of_list !(net_sinks.(i));
            is_output = false;
          })
  in
  let netlist =
    { nl with Netlist.cells; nets }
  in
  (match Netlist.check netlist with
  | Ok () -> ()
  | Error (e :: _) -> failwith ("level-shifter insertion broke the netlist: " ^ e)
  | Error [] -> assert false);
  let new_placement, displacement =
    Incremental.insert placement netlist ~desired:(fun cid ->
        ls_positions.(cid - n_old_cells))
  in
  let domains = Island.domains partition new_placement in
  let per_domain =
    let tbl = Hashtbl.create 8 in
    for k = 0 to n_ls - 1 do
      let d = domains.(n_old_cells + k) in
      Hashtbl.replace tbl d (1 + Option.value (Hashtbl.find_opt tbl d) ~default:0)
    done;
    Hashtbl.fold (fun d n acc -> (d, n) :: acc) tbl []
    |> List.sort compare
  in
  let ls_area = ref 0.0 in
  for k = 0 to n_ls - 1 do
    ls_area := !ls_area +. cells.(n_old_cells + k).Netlist.cell.Cell_lib.area
  done;
  let ls_area = !ls_area in
  {
    netlist;
    placement = new_placement;
    partition;
    domains;
    first_ls = n_old_cells;
    count = n_ls;
    per_domain;
    ls_area;
    ls_area_frac = ls_area /. Netlist.area nl;
    displacement;
  }

let vdd_assignment t ~raised cid =
  Island.vdd_assignment ~domains:t.domains ~raised ~lib:t.netlist.Netlist.lib cid
