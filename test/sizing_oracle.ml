(* Reference of [Sizing]'s round driver.

   The library re-drives one [Sta.view] in place: a round stages its
   re-drives, commits them, and re-times the committed delays in a kept
   workspace.  This is the driver it replaced: every round builds the
   re-driven netlist with [Netlist.remap_cells] and a fresh graph of it
   with [Sta.build], then analyzes it.  Tests hold the library's sized
   netlists, round counts and drive-change counts to it, Marshal-equal. *)

open Pvtol_netlist
module Cell_lib = Pvtol_stdcell.Cell
module Sta = Pvtol_timing.Sta
module Sizing = Pvtol_timing.Sizing

type report = { netlist : Netlist.t; rounds : int; downsized : int }

let smaller_drive = function
  | Cell_lib.X4 -> Some Cell_lib.X2
  | Cell_lib.X2 -> Some Cell_lib.X1
  | Cell_lib.X1 -> Some Cell_lib.X0
  | Cell_lib.X0 -> None

let bigger_drive = function
  | Cell_lib.X0 -> Some Cell_lib.X1
  | Cell_lib.X1 -> Some Cell_lib.X2
  | Cell_lib.X2 -> Some Cell_lib.X4
  | Cell_lib.X4 -> None

let stage_required sta ~delays ~clock =
  Sta.required_with sta ~delays ~endpoint_required:(fun c ->
      match c with
      | Some s -> clock *. Sizing.balanced_fracs s
      | None -> clock)

let meets_constraints (result : Sta.result) ~clock =
  List.for_all
    (fun (s, d, _) -> d <= clock *. Sizing.balanced_fracs s +. 1e-9)
    result.Sta.stage_worst

let run_rounds ~max_rounds ~rebuild nl step =
  let rec go nl rounds changes =
    if rounds = max_rounds then (nl, rounds, changes)
    else
      let sta = rebuild nl in
      let delays = Sta.nominal_delays sta in
      match step sta ~delays (Sta.analyze sta ~delays) with
      | None -> (nl, rounds + 1, changes)
      | Some (nl', changed) -> go nl' (rounds + 1) (changes + changed)
  in
  go nl 0 0

let recover ~guard ~clock ~rebuild nl =
  run_rounds ~max_rounds:16 ~rebuild nl (fun sta ~delays result ->
      let nl = Sta.netlist sta in
      let lib = nl.Netlist.lib in
      let req = stage_required sta ~delays ~clock in
      let changed = ref 0 in
      let next =
        Netlist.remap_cells nl (fun c ->
            let cell = c.Netlist.cell in
            match smaller_drive cell.Cell_lib.drive with
            | None -> cell
            | Some d ->
              let out = c.Netlist.fanout in
              let slack = req.(out) -. result.Sta.arrival.(out) in
              if not (Float.is_finite slack) then Cell_lib.find lib cell.Cell_lib.kind d
              else begin
                let candidate = Cell_lib.find lib cell.Cell_lib.kind d in
                let delta =
                  (candidate.Cell_lib.drive_res -. cell.Cell_lib.drive_res)
                  *. Sta.net_load sta out
                in
                if slack > guard *. delta && delta >= 0.0 then begin
                  incr changed;
                  candidate
                end
                else cell
              end)
      in
      if !changed = 0 then None else Some (next, !changed))

let close_timing_rounds ~clock ~rebuild nl =
  run_rounds ~max_rounds:60 ~rebuild nl (fun sta ~delays result ->
      if meets_constraints result ~clock then None
      else begin
        let nl = Sta.netlist sta in
        let lib = nl.Netlist.lib in
        let req = stage_required sta ~delays ~clock in
        let offenders = ref [] in
        Array.iter
          (fun (c : Netlist.cell) ->
            let out = c.Netlist.fanout in
            let slack = req.(out) -. result.Sta.arrival.(out) in
            if
              Float.is_finite slack && slack < 0.0
              && bigger_drive c.Netlist.cell.Cell_lib.drive <> None
            then offenders := (slack, c.Netlist.id) :: !offenders)
          nl.Netlist.cells;
        let offenders = Array.of_list !offenders in
        if Array.length offenders = 0 then None
        else begin
          Array.sort compare offenders;
          let budget_count = max 50 (Array.length offenders / 8) in
          let picked = Hashtbl.create 64 in
          Array.iteri
            (fun i (_, cid) -> if i < budget_count then Hashtbl.replace picked cid ())
            offenders;
          let changed = ref 0 in
          let next =
            Netlist.remap_cells nl (fun c ->
                let cell = c.Netlist.cell in
                if Hashtbl.mem picked c.Netlist.id then
                  match bigger_drive cell.Cell_lib.drive with
                  | Some d ->
                    incr changed;
                    Cell_lib.find lib cell.Cell_lib.kind d
                  | None -> cell
                else cell)
          in
          Some (next, !changed)
        end
      end)

let rebuild_with ~wire_length ~capture nl = Sta.build nl ~wire_length ~capture

let close_timing ~wire_length ~capture ~clock nl =
  let netlist, rounds, downsized =
    close_timing_rounds ~clock ~rebuild:(rebuild_with ~wire_length ~capture) nl
  in
  { netlist; rounds; downsized }

let fit ~wire_length ~capture ~clock nl =
  let rebuild = rebuild_with ~wire_length ~capture in
  let pass (nl, rounds, sized) guard =
    let nl, r1, s1 = close_timing_rounds ~clock ~rebuild nl in
    let nl, r2, s2 = recover ~guard ~clock ~rebuild nl in
    (nl, rounds + r1 + r2, sized + s1 + s2)
  in
  let nl, rounds, sized = List.fold_left pass (nl, 0, 0) [ 6.0; 3.0; 2.0 ] in
  let netlist, r, s = close_timing_rounds ~clock ~rebuild nl in
  { netlist; rounds = rounds + r; downsized = sized + s }
