open Pvtol_netlist
module Cell_lib = Pvtol_stdcell.Cell

type report = {
  sta : Sta.t;
  clock : float;
  rounds : int;
  downsized : int;
  area_before : float;
  area_after : float;
}

let smaller_drive = function
  | Cell_lib.X4 -> Some Cell_lib.X2
  | Cell_lib.X2 -> Some Cell_lib.X1
  | Cell_lib.X1 -> Some Cell_lib.X0
  | Cell_lib.X0 -> None

let balanced_fracs = function
  | Stage.Execute -> 1.0
  | Stage.Decode -> 0.965
  | Stage.Writeback -> 0.93
  | Stage.Fetch -> 0.88
  | Stage.Pipe_regs | Stage.Reg_file -> 1.0

let bigger_drive = function
  | Cell_lib.X0 -> Some Cell_lib.X1
  | Cell_lib.X1 -> Some Cell_lib.X2
  | Cell_lib.X2 -> Some Cell_lib.X4
  | Cell_lib.X4 -> None

(* Per-net required times seeded with each endpoint's stage budget. *)
let stage_required sta ~delays ~clock =
  Sta.required_with sta ~delays ~endpoint_required:(fun c ->
      match c with
      | Some s -> clock *. balanced_fracs s
      | None -> clock)

let meets_constraints (result : Sta.result) ~clock =
  List.for_all
    (fun (s, d, _) -> d <= clock *. balanced_fracs s +. 1e-9)
    result.Sta.stage_worst

(* The one round driver.  A sizing pass times one netlist graph whose
   cell masters change from round to round: each round analyzes the
   current graph at the nominal corner and [step] picks the re-driven
   netlist and its number of drive changes, or [None] to stop; the next
   round times [Sta.resize] of that netlist. *)
let run_rounds ~max_rounds ~clock sta step =
  let rec go sta rounds changes =
    if rounds = max_rounds then (sta, rounds, changes)
    else
      let delays = Sta.nominal_delays sta in
      match step sta ~delays (Sta.analyze sta ~delays) with
      | None -> (sta, rounds + 1, changes)
      | Some (nl, changed) ->
        go (Sta.resize sta nl) (rounds + 1) (changes + changed)
  in
  let final, rounds, downsized = go sta 0 0 in
  {
    sta = final;
    clock;
    rounds;
    downsized;
    area_before = Netlist.area (Sta.netlist sta);
    area_after = Netlist.area (Sta.netlist final);
  }

(* Greedy downsizing: a cell drops one drive notch when its slack
   exceeds [guard] times its estimated delay increase.  Rounds are not
   verified, so a round may overshoot a stage budget; [fit] closes
   timing again after every recovery pass. *)
let recover ~guard ~clock sta =
  run_rounds ~max_rounds:16 ~clock sta (fun sta ~delays result ->
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
              if not (Float.is_finite slack) then
                (* No timing endpoint downstream: free to downsize. *)
                Cell_lib.find lib cell.Cell_lib.kind d
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

let close_timing ~clock sta =
  run_rounds ~max_rounds:60 ~clock sta (fun sta ~delays result ->
      if meets_constraints result ~clock then None
      else begin
        let nl = Sta.netlist sta in
        let lib = nl.Netlist.lib in
        let req = stage_required sta ~delays ~clock in
        (* Upsizing a whole violating cone at once overshoots badly; fix
           only the worst-slack fraction of offenders per round. *)
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

(* Alternating closure/recovery: the unverified recovery pushes every
   stage up against its budget; the closure pass that follows repairs
   any overshoot, and a final closure pass ends the run. *)
let fit ~clock sta =
  let pass (sta, rounds, sized) guard =
    let closed = close_timing ~clock sta in
    let recovered = recover ~guard ~clock closed.sta in
    ( recovered.sta,
      rounds + closed.rounds + recovered.rounds,
      sized + closed.downsized + recovered.downsized )
  in
  let recovered, rounds, sized = List.fold_left pass (sta, 0, 0) [ 6.0; 3.0; 2.0 ] in
  let final = close_timing ~clock recovered in
  {
    final with
    rounds = rounds + final.rounds;
    downsized = sized + final.downsized;
    area_before = Netlist.area (Sta.netlist sta);
  }
