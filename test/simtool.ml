(* Small reference logic simulator used by the functional tests:
   evaluates a frozen netlist cycle by cycle, exposing net values
   (unlike the production Gatesim, which only counts toggles). *)

open Pvtol_netlist
module Kind = Pvtol_stdcell.Kind

type t = {
  nl : Netlist.t;
  values : bool array;   (* per net *)
  order : int array;     (* combinational topo order *)
  flops : Netlist.cell array;
}

let is_seq (c : Netlist.cell) =
  Kind.is_sequential c.Netlist.cell.Pvtol_stdcell.Cell.kind

let create nl =
  let n = Netlist.cell_count nl in
  let indeg = Array.make n 0 in
  Array.iter
    (fun (c : Netlist.cell) ->
      if not (is_seq c) then
        Array.iter
          (fun nid ->
            match nl.Netlist.nets.(nid).Netlist.driver with
            | Some d when not (is_seq nl.Netlist.cells.(d)) ->
              indeg.(c.Netlist.id) <- indeg.(c.Netlist.id) + 1
            | Some _ | None -> ())
          c.Netlist.fanins)
    nl.Netlist.cells;
  let q = Queue.create () in
  Array.iter
    (fun (c : Netlist.cell) ->
      if (not (is_seq c)) && indeg.(c.Netlist.id) = 0 then Queue.add c.Netlist.id q)
    nl.Netlist.cells;
  let order = ref [] in
  while not (Queue.is_empty q) do
    let cid = Queue.pop q in
    order := cid :: !order;
    Array.iter
      (fun (sink, _) ->
        if not (is_seq nl.Netlist.cells.(sink)) then begin
          indeg.(sink) <- indeg.(sink) - 1;
          if indeg.(sink) = 0 then Queue.add sink q
        end)
      nl.Netlist.nets.(nl.Netlist.cells.(cid).Netlist.fanout).Netlist.sinks
  done;
  {
    nl;
    values = Array.make (Netlist.net_count nl) false;
    order = Array.of_list (List.rev !order);
    flops = Array.of_seq (Seq.filter is_seq (Array.to_seq nl.Netlist.cells));
  }

let set_input t nid v = t.values.(nid) <- v

let set_bus t (bus : Netlist.net_id array) value =
  Array.iteri (fun i nid -> set_input t nid ((value lsr i) land 1 = 1)) bus

let eval_comb t =
  Array.iter
    (fun cid ->
      let c = t.nl.Netlist.cells.(cid) in
      let ins = Array.map (fun nid -> t.values.(nid)) c.Netlist.fanins in
      t.values.(c.Netlist.fanout) <-
        Kind.eval c.Netlist.cell.Pvtol_stdcell.Cell.kind ins)
    t.order

let clock_edge t =
  let captured =
    Array.map (fun (c : Netlist.cell) -> t.values.(c.Netlist.fanins.(0))) t.flops
  in
  Array.iteri
    (fun i (c : Netlist.cell) -> t.values.(c.Netlist.fanout) <- captured.(i))
    t.flops

let read t nid = t.values.(nid)

let read_bus t (bus : Netlist.net_id array) =
  Array.to_list bus
  |> List.mapi (fun i nid -> if t.values.(nid) then 1 lsl i else 0)
  |> List.fold_left ( lor ) 0

(* Build-and-evaluate helper for purely combinational blocks expressed
   through the Gen API: [combinational builder ~inputs ~apply] returns a
   closure evaluating the block for given input integers. *)
let combinational ~(widths : int list)
    ~(build : Pvtol_vex.Gen.t -> Pvtol_vex.Gen.bus list -> Pvtol_vex.Gen.bus) ()
    =
  let g =
    Pvtol_vex.Gen.create ~design_name:"dut" ~seed:1
      Pvtol_stdcell.Cell.default_library
  in
  let inputs =
    List.mapi (fun i w -> Pvtol_vex.Gen.inputs g (Printf.sprintf "in%d" i) w) widths
  in
  let out = build g inputs in
  Pvtol_vex.Gen.outputs g "out" out;
  let nl = Netlist.Builder.freeze (Pvtol_vex.Gen.builder g) in
  let sim = create nl in
  ( nl,
    fun (args : int list) ->
      List.iter2 (fun bus v -> set_bus sim bus v) inputs args;
      eval_comb sim;
      read_bus sim out )

(* Reference switching-activity simulator: the plain per-cell loop the
   production [Gatesim.run] compiles away.  Each cycle drives the
   inputs, evaluates every combinational cell with [Kind.eval] on a
   freshly allocated pin array and counts output changes, then clocks
   the flops from a freshly captured D vector.  Returns per-cell toggle
   counts. *)
let toggles ~cycles nl (stimulus : Pvtol_power.Gatesim.stimulus) =
  let t = create nl in
  let toggles = Array.make (Netlist.cell_count nl) 0 in
  let bump cid = toggles.(cid) <- toggles.(cid) + 1 in
  for cycle = 0 to cycles - 1 do
    Array.iteri
      (fun idx nid -> set_input t nid (stimulus ~cycle ~input_index:idx))
      nl.Netlist.inputs;
    Array.iter
      (fun cid ->
        let c = nl.Netlist.cells.(cid) in
        let ins = Array.map (fun nid -> t.values.(nid)) c.Netlist.fanins in
        let v = Kind.eval c.Netlist.cell.Pvtol_stdcell.Cell.kind ins in
        if v <> t.values.(c.Netlist.fanout) then bump cid;
        t.values.(c.Netlist.fanout) <- v)
      t.order;
    let captured =
      Array.map (fun (c : Netlist.cell) -> t.values.(c.Netlist.fanins.(0))) t.flops
    in
    Array.iteri
      (fun i (c : Netlist.cell) ->
        if captured.(i) <> t.values.(c.Netlist.fanout) then bump c.Netlist.id;
        t.values.(c.Netlist.fanout) <- captured.(i))
      t.flops
  done;
  toggles
