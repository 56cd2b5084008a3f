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

(* Per-net required times seeded with each endpoint's stage budget,
   into the view's kept buffer. *)
let stage_required v ~clock =
  Sta.required_view v ~endpoint_required:(fun c ->
      match c with
      | Some s -> clock *. balanced_fracs s
      | None -> clock)

(* Over the stages that have endpoints. *)
let meets_constraints ws ~clock =
  List.for_all
    (fun s ->
      match Sta.ws_stage_delay ws s 0 with
      | Some d -> d <= clock *. balanced_fracs s +. 1e-9
      | None -> true)
    Stage.all

(* The one round driver.  A sizing pass re-drives one view of a timing
   graph: each round analyzes the committed masters at the nominal
   corner, and [step] stages the round's re-drives from that state and
   returns their number, or [None] to stop; the staged re-drives are
   committed before the next round. *)
let run_rounds ~max_rounds v step =
  let rec go rounds changes =
    if rounds = max_rounds then (rounds, changes)
    else
      match step (Sta.analyze_view v) with
      | None -> (rounds + 1, changes)
      | Some changed ->
        Sta.commit v;
        go (rounds + 1) (changes + changed)
  in
  go 0 0

(* Greedy downsizing: a cell drops one drive notch when its slack
   exceeds [guard] times its estimated delay increase on its committed
   load.  Cells with no timing endpoint downstream are free to
   downsize but not counted, and go only with a round that has a
   counted change.  Rounds are not verified, so a round may overshoot
   a stage budget; [fit] closes timing again after every recovery
   pass. *)
let recover ~guard ~clock nl v =
  let lib = nl.Netlist.lib in
  run_rounds ~max_rounds:16 v (fun ws ->
      let req = stage_required v ~clock in
      let changed = ref 0 and free = ref [] in
      Array.iter
        (fun (c : Netlist.cell) ->
          let cid = c.Netlist.id in
          let cell = Sta.master v cid in
          match smaller_drive cell.Cell_lib.drive with
          | None -> ()
          | Some d ->
            let candidate = Cell_lib.find lib cell.Cell_lib.kind d in
            let out = c.Netlist.fanout in
            let slack = req.(out) -. Sta.ws_arrival ws out 0 in
            if not (Float.is_finite slack) then free := (cid, candidate) :: !free
            else begin
              let delta =
                (candidate.Cell_lib.drive_res -. cell.Cell_lib.drive_res)
                *. Sta.view_load v out
              in
              if slack > guard *. delta && delta >= 0.0 then begin
                incr changed;
                Sta.set_master v cid candidate
              end
            end)
        nl.Netlist.cells;
      if !changed = 0 then None
      else begin
        List.iter (fun (cid, m) -> Sta.set_master v cid m) !free;
        Some !changed
      end)

(* Timing closure: upsize the worst-slack offenders one notch. *)
let close ~clock nl v =
  let lib = nl.Netlist.lib in
  run_rounds ~max_rounds:60 v (fun ws ->
      if meets_constraints ws ~clock then None
      else begin
        let req = stage_required v ~clock in
        (* Upsizing a whole violating cone at once overshoots badly; fix
           only the worst-slack fraction of offenders per round. *)
        let offenders = ref [] in
        Array.iter
          (fun (c : Netlist.cell) ->
            let out = c.Netlist.fanout in
            let slack = req.(out) -. Sta.ws_arrival ws out 0 in
            if
              Float.is_finite slack && slack < 0.0
              && bigger_drive (Sta.master v c.Netlist.id).Cell_lib.drive <> None
            then offenders := (slack, c.Netlist.id) :: !offenders)
          nl.Netlist.cells;
        let offenders = Array.of_list !offenders in
        if Array.length offenders = 0 then None
        else begin
          Array.sort compare offenders;
          let budget_count = max 50 (Array.length offenders / 8) in
          let changed = ref 0 in
          Array.iteri
            (fun i (_, cid) ->
              if i < budget_count then begin
                let cell = Sta.master v cid in
                match bigger_drive cell.Cell_lib.drive with
                | Some d ->
                  incr changed;
                  Sta.set_master v cid (Cell_lib.find lib cell.Cell_lib.kind d)
                | None -> ()
              end)
            offenders;
          Some !changed
        end
      end)

(* The report of the passes run on [v], a view of [sta]. *)
let report ~clock sta v (rounds, downsized) =
  let final = Sta.freeze v in
  {
    sta = final;
    clock;
    rounds;
    downsized;
    area_before = Netlist.area (Sta.netlist sta);
    area_after = Netlist.area (Sta.netlist final);
  }

let close_timing ~clock sta =
  let v = Sta.view sta in
  report ~clock sta v (close ~clock (Sta.netlist sta) v)

(* Alternating closure/recovery on one view: the unverified recovery
   pushes every stage up against its budget; the closure pass that
   follows repairs any overshoot, and a final closure pass ends the
   run. *)
let fit ~clock sta =
  let nl = Sta.netlist sta in
  let v = Sta.view sta in
  let add (r, c) (r', c') = (r + r', c + c') in
  let pass acc guard =
    let acc = add acc (close ~clock nl v) in
    add acc (recover ~guard ~clock nl v)
  in
  let passes = List.fold_left pass (0, 0) [ 6.0; 3.0; 2.0 ] in
  report ~clock sta v (add passes (close ~clock nl v))
