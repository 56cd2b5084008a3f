(* Scalar reference of [Sta]'s forward-timing kernel.

   The library times every caller — Monte-Carlo blocks, per-die
   re-timing, sizing — through one lane-strided pass with clock skew as
   a per-flop row of the workspace.  This is the one-analysis-at-a-time
   pass it replaced, kept as it was: clock skew is a closure called
   once at each flop's launch and once at its capture, endpoint delays
   live in a per-cell array, and the graph is walked cell by cell with
   one accumulator per cell.  Tests hold every lane of the library
   kernel, its incremental pass and the oracles of [Engine_diff] and
   [Compensation_oracle] to it bit for bit.

   The graph is read through [Sta]'s public structure accessors, so the
   floats (pin wire delays, setup) are the library's own; the pass
   itself shares no code with the kernel. *)

open Pvtol_netlist
module Sta = Pvtol_timing.Sta
module Metrics = Pvtol_util.Metrics

let n_stages = List.length Stage.all

(* Counted like a library pass, so tests can compare the STA work of a
   library run and of an oracle run. *)
let m_analyzes = Metrics.counter "sta_analyze_total"

type workspace = {
  sta : Sta.t;
  order : int array;
  flops : int array;
  setup : float;
  arrival_ws : float array;         (* per net *)
  endpoint_delay_ws : float array;  (* per cell *)
  stage_delay_ws : float array;     (* per Stage.index; meaningful iff endpoint >= 0 *)
  stage_endpoint_ws : int array;    (* per Stage.index; -1 = no endpoint *)
  mutable worst_ws : float;
  mutable worst_endpoint_ws : int;
}

let workspace sta =
  let nl = Sta.netlist sta in
  {
    sta;
    order = Sta.comb_order sta;
    flops = Sta.flop_ids sta;
    setup = nl.Netlist.lib.Pvtol_stdcell.Cell.setup;
    arrival_ws = Array.make (Netlist.net_count nl) 0.0;
    endpoint_delay_ws = Array.make (Netlist.cell_count nl) 0.0;
    stage_delay_ws = Array.make n_stages neg_infinity;
    stage_endpoint_ws = Array.make n_stages (-1);
    worst_ws = 0.0;
    worst_endpoint_ws = -1;
  }

let zero_skew = fun (_ : Netlist.cell_id) -> 0.0

let endpoint_pass ~skew ws =
  let nl = Sta.netlist ws.sta in
  let arrival = ws.arrival_ws in
  let endpoint_delay = ws.endpoint_delay_ws in
  Array.fill endpoint_delay 0 (Array.length endpoint_delay) 0.0;
  Array.fill ws.stage_delay_ws 0 n_stages neg_infinity;
  Array.fill ws.stage_endpoint_ws 0 n_stages (-1);
  ws.worst_ws <- neg_infinity;
  ws.worst_endpoint_ws <- -1;
  Array.iter
    (fun cid ->
      let c = nl.Netlist.cells.(cid) in
      let d_pin = c.Netlist.fanins.(0) in
      (* A late capture edge relaxes the endpoint by its own skew. *)
      let a =
        arrival.(d_pin) +. Sta.pin_wire_delay ws.sta cid 0 +. ws.setup -. skew cid
      in
      endpoint_delay.(cid) <- a;
      if a > ws.worst_ws then begin
        ws.worst_ws <- a;
        ws.worst_endpoint_ws <- cid
      end;
      match Sta.capture_stage_of ws.sta cid with
      | Some stage ->
        let si = Stage.index stage in
        if a > ws.stage_delay_ws.(si) then begin
          ws.stage_delay_ws.(si) <- a;
          ws.stage_endpoint_ws.(si) <- cid
        end
      | None -> ())
    ws.flops;
  if ws.worst_endpoint_ws = -1 then ws.worst_ws <- 0.0

let analyze_into ?skew ws ~delays =
  Metrics.incr m_analyzes;
  let nl = Sta.netlist ws.sta in
  let skew = match skew with Some f -> f | None -> zero_skew in
  let arrival = ws.arrival_ws in
  Array.fill arrival 0 (Array.length arrival) 0.0;
  (* Launch points: flop outputs, offset by the launch edge's arrival. *)
  Array.iter
    (fun cid ->
      arrival.(nl.Netlist.cells.(cid).Netlist.fanout) <- delays.(cid) +. skew cid)
    ws.flops;
  (* Primary inputs arrive at t = 0 (already initialised). *)
  Array.iter
    (fun cid ->
      let c = nl.Netlist.cells.(cid) in
      let fanins = c.Netlist.fanins in
      let acc = ref 0.0 in
      for pin = 0 to Array.length fanins - 1 do
        let a = arrival.(fanins.(pin)) +. Sta.pin_wire_delay ws.sta cid pin in
        if a > !acc then acc := a
      done;
      arrival.(c.Netlist.fanout) <- !acc +. delays.(cid))
    ws.order;
  endpoint_pass ~skew ws

let ws_worst ws = ws.worst_ws
let ws_worst_endpoint ws = ws.worst_endpoint_ws
let ws_endpoint_delay ws cid = ws.endpoint_delay_ws.(cid)

let ws_stage_delay ws stage =
  let si = Stage.index stage in
  if ws.stage_endpoint_ws.(si) >= 0 then Some ws.stage_delay_ws.(si) else None
