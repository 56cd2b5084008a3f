open Pvtol_netlist

(* The VEX design's stage-level feedback loops: the execute forwarding
   self-loop, the writeback -> decode -> execute register-file loop,
   and the fetch <-> decode branch loop. *)
let loops =
  [
    [ Stage.Execute ];
    [ Stage.Writeback; Stage.Decode; Stage.Execute ];
    [ Stage.Fetch; Stage.Decode ];
  ]

type result = {
  t_unretimed : float;
  t_retimed : float;
  gain : float;
  binding_loop : Stage.t list;
}

let bound ~delay_of =
  let delays stages = List.filter_map delay_of stages in
  let all =
    delays [ Stage.Fetch; Stage.Decode; Stage.Execute; Stage.Writeback ]
  in
  assert (all <> []);
  let t_unretimed = List.fold_left Float.max 0.0 all in
  let loop_avg stages =
    match delays stages with
    | [] -> None
    | ds ->
      Some (List.fold_left ( +. ) 0.0 ds /. float_of_int (List.length ds))
  in
  let t_retimed, binding_loop =
    List.fold_left
      (fun (best, bl) l ->
        match loop_avg l with
        | Some avg when avg > best -> (avg, l)
        | _ -> (best, bl))
      (0.0, []) loops
  in
  {
    t_unretimed;
    t_retimed;
    gain = 1.0 -. (t_retimed /. t_unretimed);
    binding_loop;
  }
