open Pvtol_netlist
module Cell_lib = Pvtol_stdcell.Cell

type report = {
  netlist : Netlist.t;
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
let stage_required sta ~delays ~clock ~frac =
  Sta.required_with sta ~delays ~endpoint_required:(fun c ->
      match c with
      | Some s -> clock *. frac s
      | None -> clock)

let meets_constraints (result : Sta.result) ~clock ~frac =
  List.for_all
    (fun (s, d, _) -> d <= clock *. frac s +. 1e-9)
    result.Sta.stage_worst

(* A sizing run times one netlist graph whose cell masters change from
   round to round: it builds the graph once and re-times each round's
   netlist with [Sta.resize]. *)
let retime sta nl = if Sta.netlist sta == nl then sta else Sta.resize sta nl

let recover ?(max_rounds = 16) ?(guard = 10.0) ?(rollback = true)
    ?(frac = fun _ -> 1.0) ~clock ~wire_length ~capture nl =
  let lib = nl.Netlist.lib in
  let area_before = Netlist.area nl in
  let current = ref nl in
  let rounds = ref 0 in
  let downsized = ref 0 in
  let guard = ref guard in
  let graph = ref (Sta.build nl ~wire_length ~capture) in
  let continue_ = ref true in
  while !continue_ && !rounds < max_rounds do
    incr rounds;
    let nl = !current in
    let sta = retime !graph nl in
    graph := sta;
    let delays = Sta.nominal_delays sta in
    let result = Sta.analyze sta ~delays in
    let req = stage_required sta ~delays ~clock ~frac in
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
              if slack > !guard *. delta && delta >= 0.0 then begin
                incr changed;
                candidate
              end
              else cell
            end)
    in
    if !changed = 0 then continue_ := false
    else if not rollback then begin
      current := next;
      downsized := !downsized + !changed
    end
    else begin
      (* Verify the round; roll back and tighten the guard on failure. *)
      let sta' = Sta.resize sta next in
      let result' = Sta.analyze sta' ~delays:(Sta.nominal_delays sta') in
      if meets_constraints result' ~clock ~frac then begin
        current := next;
        graph := sta';
        downsized := !downsized + !changed
      end
      else guard := !guard *. 2.0
    end
  done;
  {
    netlist = !current;
    clock;
    rounds = !rounds;
    downsized = !downsized;
    area_before;
    area_after = Netlist.area !current;
  }

let close_timing ?(max_rounds = 60) ?(frac = fun _ -> 1.0) ~clock ~wire_length
    ~capture nl =
  let lib = nl.Netlist.lib in
  let area_before = Netlist.area nl in
  let current = ref nl in
  let rounds = ref 0 in
  let upsized = ref 0 in
  let graph = ref (Sta.build nl ~wire_length ~capture) in
  let continue_ = ref true in
  while !continue_ && !rounds < max_rounds do
    incr rounds;
    let nl = !current in
    let sta = retime !graph nl in
    graph := sta;
    let delays = Sta.nominal_delays sta in
    let result = Sta.analyze sta ~delays in
    if meets_constraints result ~clock ~frac then continue_ := false
    else begin
      let req = stage_required sta ~delays ~clock ~frac in
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
      if Array.length offenders = 0 then continue_ := false
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
        current := next;
        upsized := !upsized + !changed
      end
    end
  done;
  {
    netlist = !current;
    clock;
    rounds = !rounds;
    downsized = !upsized;
    area_before;
    area_after = Netlist.area !current;
  }

(* Alternating closure/recovery: the optimistic (no-rollback) recovery
   pushes every stage up against its budget; the closure pass that
   follows repairs any overshoot.  A final closure pass guarantees the
   returned netlist meets all constraints. *)
let fit ?frac ~clock ~wire_length ~capture nl =
  let area_before = Netlist.area nl in
  let current = ref nl in
  let rounds = ref 0 in
  let sized = ref 0 in
  for pass = 1 to 3 do
    let closed = close_timing ?frac ~clock ~wire_length ~capture !current in
    rounds := !rounds + closed.rounds;
    sized := !sized + closed.downsized;
    let guard = match pass with 1 -> 6.0 | 2 -> 3.0 | _ -> 2.0 in
    let recovered =
      recover ~guard ~rollback:false ?frac ~clock ~wire_length ~capture
        closed.netlist
    in
    rounds := !rounds + recovered.rounds;
    sized := !sized + recovered.downsized;
    current := recovered.netlist
  done;
  let final = close_timing ?frac ~clock ~wire_length ~capture !current in
  {
    netlist = final.netlist;
    clock;
    rounds = !rounds + final.rounds;
    downsized = !sized + final.downsized;
    area_before;
    area_after = Netlist.area final.netlist;
  }
