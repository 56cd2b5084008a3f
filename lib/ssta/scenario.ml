open Pvtol_netlist

type stage_slack = {
  stage : Stage.t;
  three_sigma : float;
  slack : float;
  violates : bool;
}

type t = {
  position : Pvtol_variation.Position.t;
  clock : float;
  stage_slacks : stage_slack list;
  violating : Stage.t list;
  index : int;
}

let analyzed_stages = [ Stage.Decode; Stage.Execute; Stage.Writeback ]

let classify ~clock (mc : Monte_carlo.result) =
  let stage_slacks =
    List.filter_map
      (fun s ->
        match Monte_carlo.stage_stats mc s with
        | None -> None
        | Some ss ->
          let three_sigma = Monte_carlo.three_sigma_delay ss in
          let slack = clock -. three_sigma in
          Some { stage = s; three_sigma; slack; violates = slack < 0.0 })
      analyzed_stages
  in
  let violating =
    List.filter (fun s -> s.violates) stage_slacks
    |> List.sort (fun a b -> compare a.slack b.slack)
    |> List.map (fun s -> s.stage)
  in
  {
    position = mc.Monte_carlo.position;
    clock;
    stage_slacks;
    violating;
    index = List.length violating;
  }

let pp fmt t =
  Format.fprintf fmt "position %s: scenario %d (%s)@."
    t.position.Pvtol_variation.Position.label t.index
    (match t.violating with
    | [] -> "no violations"
    | vs -> String.concat ", " (List.map Stage.name vs));
  List.iter
    (fun s ->
      Format.fprintf fmt "  %-12s 3sigma=%.3f ns  slack=%+.3f ns%s@."
        (Stage.name s.stage) s.three_sigma s.slack
        (if s.violates then "  VIOLATES" else ""))
    t.stage_slacks
