open Pvtol_netlist
module Cell_lib = Pvtol_stdcell.Cell
module Kind = Pvtol_stdcell.Kind

let n_stages = List.length Stage.all

(* analyze/workspace counters: the ratio of the two is the workspace
   reuse factor the allocation-free inner loop exists for. *)
module Metrics = Pvtol_util.Metrics

let m_builds = Metrics.counter "sta_builds_total"
let m_workspaces = Metrics.counter "sta_workspace_total"
let m_analyzes = Metrics.counter "sta_analyze_total"

type t = {
  nl : Netlist.t;
  order : int array;             (* combinational cells, topological *)
  wire_um : float array;         (* per net: tabulated wire length *)
  net_load : float array;        (* per net: sink pin caps + wire cap *)
  base_delay : float array;      (* per cell *)
  pin_off : int array;           (* CSR row offsets into the pin arrays, length cells+1 *)
  pin_net : int array;           (* flattened per-pin fanin net ids, pin order *)
  pin_wire : float array;        (* flattened per-pin wire delays, pin order *)
  out_net : int array;           (* per cell: its fanout net *)
  clk_to_q : float;
  setup : float;
  capture_of : Stage.t option array;  (* per cell *)
  flops : int array;
  stage_endpoints : int array array;  (* per Stage.index: capturing flops, id order *)
  flop_slot : int array;         (* per cell: index into [flops], -1 if comb *)
}

let netlist t = t.nl

let is_seq (c : Netlist.cell) = Kind.is_sequential c.Netlist.cell.Cell_lib.kind

let topo_order (nl : Netlist.t) =
  let n = Netlist.cell_count nl in
  let indeg = Array.make n 0 in
  let comb c = not (is_seq c) in
  Array.iter
    (fun (c : Netlist.cell) ->
      if comb c then
        Array.iter
          (fun nid ->
            match nl.Netlist.nets.(nid).Netlist.driver with
            | Some d when comb nl.Netlist.cells.(d) ->
              indeg.(c.Netlist.id) <- indeg.(c.Netlist.id) + 1
            | Some _ | None -> ())
          c.Netlist.fanins)
    nl.Netlist.cells;
  let queue = Queue.create () in
  Array.iter
    (fun (c : Netlist.cell) ->
      if comb c && indeg.(c.Netlist.id) = 0 then Queue.add c.Netlist.id queue)
    nl.Netlist.cells;
  let order = Array.make n (-1) in
  let k = ref 0 in
  while not (Queue.is_empty queue) do
    let cid = Queue.pop queue in
    order.(!k) <- cid;
    incr k;
    Array.iter
      (fun (sink, _) ->
        if not (is_seq nl.Netlist.cells.(sink)) then begin
          indeg.(sink) <- indeg.(sink) - 1;
          if indeg.(sink) = 0 then Queue.add sink queue
        end)
      nl.Netlist.nets.(nl.Netlist.cells.(cid).Netlist.fanout).Netlist.sinks
  done;
  Array.sub order 0 !k

(* The drive-dependent part of a timing graph: a net's load is its
   sinks' input caps folded left to right from 0, plus the tabulated
   wire cap of a connected net; a cell's delay is its intrinsic delay
   (clk-to-q for a flop) plus its drive resistance times its output
   load.  [build] and [commit] both evaluate these two expressions, so
   a re-driven view and a fresh build agree bit for bit. *)
let net_load_of (lib : Cell_lib.library) wire_um (masters : Cell_lib.t array)
    (net : Netlist.net) =
  let sinks = net.Netlist.sinks in
  let pins = ref 0.0 in
  for j = 0 to Array.length sinks - 1 do
    let cid, _ = sinks.(j) in
    pins := !pins +. masters.(cid).Cell_lib.input_cap
  done;
  let wire =
    if net.Netlist.driver = None && Array.length sinks = 0 then 0.0
    else lib.Cell_lib.wire_cap_per_um *. wire_um.(net.Netlist.net_id)
  in
  !pins +. wire

let cell_delay (lib : Cell_lib.library) (cell : Cell_lib.t) ~seq load =
  if seq then lib.Cell_lib.clk_to_q +. (cell.Cell_lib.drive_res *. load)
  else cell.Cell_lib.d0 +. (cell.Cell_lib.drive_res *. load)

let build nl ~wire_length ~capture =
  Metrics.incr m_builds;
  let lib = nl.Netlist.lib in
  (* One lookup per net: the per-pin wire delays below index this table
     rather than re-estimating a net once per sink. *)
  let wire_um = Array.init (Netlist.net_count nl) wire_length in
  let masters = Array.map (fun (c : Netlist.cell) -> c.Netlist.cell) nl.Netlist.cells in
  let net_load = Array.map (net_load_of lib wire_um masters) nl.Netlist.nets in
  let base_delay =
    Array.map
      (fun (c : Netlist.cell) ->
        cell_delay lib c.Netlist.cell ~seq:(is_seq c) net_load.(c.Netlist.fanout))
      nl.Netlist.cells
  in
  (* Flattened CSR layout for the pins: each pin's fanin net and wire
     delay in two contiguous arrays walked linearly by the forward pass,
     and each cell's fanout net in a third, so the pass never follows a
     cell record or its fanin array. *)
  let n_cells = Netlist.cell_count nl in
  let pin_off = Array.make (n_cells + 1) 0 in
  Array.iter
    (fun (c : Netlist.cell) ->
      pin_off.(c.Netlist.id + 1) <- Array.length c.Netlist.fanins)
    nl.Netlist.cells;
  for i = 1 to n_cells do
    pin_off.(i) <- pin_off.(i) + pin_off.(i - 1)
  done;
  let pin_net = Array.make pin_off.(n_cells) 0 in
  let pin_wire = Array.make pin_off.(n_cells) 0.0 in
  Array.iter
    (fun (c : Netlist.cell) ->
      let off = pin_off.(c.Netlist.id) in
      Array.iteri
        (fun pin nid ->
          pin_net.(off + pin) <- nid;
          (* Lumped per-sink wire delay: half the net length. *)
          pin_wire.(off + pin) <-
            lib.Cell_lib.wire_delay_per_um *. (wire_um.(nid) /. 2.0))
        c.Netlist.fanins)
    nl.Netlist.cells;
  let out_net =
    Array.map (fun (c : Netlist.cell) -> c.Netlist.fanout) nl.Netlist.cells
  in
  let capture_of = Array.map (fun c -> capture c) nl.Netlist.cells in
  let flops =
    Array.to_list nl.Netlist.cells
    |> List.filter is_seq
    |> List.map (fun (c : Netlist.cell) -> c.Netlist.id)
    |> Array.of_list
  in
  let stage_endpoints =
    Array.init n_stages (fun si ->
        Array.to_list flops
        |> List.filter (fun cid ->
               match capture_of.(cid) with
               | Some s -> Stage.index s = si
               | None -> false)
        |> Array.of_list)
  in
  let flop_slot = Array.make n_cells (-1) in
  Array.iteri (fun slot cid -> flop_slot.(cid) <- slot) flops;
  let order = topo_order nl in
  {
    nl;
    order;
    wire_um;
    net_load;
    base_delay;
    pin_off;
    pin_net;
    pin_wire;
    out_net;
    clk_to_q = lib.Cell_lib.clk_to_q;
    setup = lib.Cell_lib.setup;
    capture_of;
    flops;
    stage_endpoints;
    flop_slot;
  }

let of_placement p ~capture =
  let wire_um = Pvtol_place.Placement.wire_lengths p in
  build p.Pvtol_place.Placement.netlist ~wire_length:(Array.get wire_um) ~capture

let net_load t nid = t.net_load.(nid)

let comb_order t = Array.copy t.order
let flop_ids t = Array.copy t.flops
let pin_wire_delay t cid pin = t.pin_wire.(t.pin_off.(cid) + pin)
let capture_stage_of t cid = t.capture_of.(cid)

let nominal_delays t = Array.copy t.base_delay

let scaled_delays t ~scale =
  Array.mapi (fun i d -> d *. scale i) t.base_delay

type result = {
  arrival : float array;
  endpoint_delay : float array;
  worst : float;
  worst_endpoint : Netlist.cell_id;
  stage_worst : (Stage.t * float * Netlist.cell_id) list;
}

(* ------------------------------------------------------------------ *)
(* The forward-timing kernel.

   One row of [stride] lanes per net and per flop: lane [k] of every
   row is one independent analysis (one Monte-Carlo sample, or the
   single lane of a per-die or sizing pass).  The forward pass walks
   cells in topological order and, per cell, lanes outside pins, so the
   accumulator of the fanin max lives in a register and each lane
   performs exactly the scalar op sequence: the same accumulator init,
   the same [>] reductions, the same endpoint arithmetic.  Clock skew
   is one per-flop row per lane of the workspace, read by the launch
   seeding and by the endpoint reduction of that lane. *)

type workspace = {
  stride : int;
  slot_of : int array;            (* [t.flop_slot]: per cell, -1 if comb *)
  arrival_ws : float array;       (* nets x stride *)
  skew_ws : float array array;    (* per lane, per flop slot: clock-arrival offset *)
  zero_skew : float array;        (* the row of every lane [skew_row] never handed out *)
  endpoint_ws : float array;      (* flop slots x stride *)
  worst_ws : float array;         (* per lane *)
  worst_ep_ws : int array;        (* per lane; -1 = no endpoint *)
  stage_delay_ws : float array;   (* n_stages x stride *)
  stage_ep_ws : int array;        (* n_stages x stride; -1 = no endpoint *)
}

let workspace ?(lanes = 1) t =
  if lanes < 1 then invalid_arg "Sta.workspace: lanes < 1";
  Metrics.incr m_workspaces;
  let n_flops = Array.length t.flops in
  let zero_skew = Array.make n_flops 0.0 in
  {
    stride = lanes;
    slot_of = t.flop_slot;
    arrival_ws = Array.make (Netlist.net_count t.nl * lanes) 0.0;
    skew_ws = Array.make lanes zero_skew;
    zero_skew;
    endpoint_ws = Array.make (max 1 n_flops * lanes) 0.0;
    worst_ws = Array.make lanes 0.0;
    worst_ep_ws = Array.make lanes (-1);
    stage_delay_ws = Array.make (n_stages * lanes) neg_infinity;
    stage_ep_ws = Array.make (n_stages * lanes) (-1);
  }

(* A lane gets a row of its own the first time it is asked for one, so
   a workspace that never runs under skew (Monte-Carlo, sizing) keeps
   one zero row for all its lanes. *)
let skew_row ws k =
  if k < 0 || k >= ws.stride then invalid_arg "Sta.skew_row: lane out of range";
  let row = ws.skew_ws.(k) in
  if row != ws.zero_skew then row
  else begin
    let own = Array.make (Array.length row) 0.0 in
    ws.skew_ws.(k) <- own;
    own
  end

(* Latest fanin arrival plus its pin wire delay, in one lane: the
   per-cell arithmetic of a workspace narrower than four lanes.  Unsafe
   reads are sound: pins [off, stop) lie in the CSR arrays, their net
   ids index rows of the [nets x stride] arrival array, and
   [k < stride]. *)
let[@inline] fanin_max arrival pin_net pin_wire off stop stride k =
  let acc = ref 0.0 in
  for p = off to stop - 1 do
    let a =
      Array.unsafe_get arrival ((Array.unsafe_get pin_net p * stride) + k)
      +. Array.unsafe_get pin_wire p
    in
    if a > !acc then acc := a
  done;
  !acc

(* The endpoint reduction over the current arrivals of lanes
   [0, lanes).  A late capture edge relaxes the endpoint by its own
   skew in that lane. *)
let endpoint_pass t ws ~lanes =
  let stride = ws.stride in
  let arrival = ws.arrival_ws and endpoint = ws.endpoint_ws in
  let worst = ws.worst_ws and worst_ep = ws.worst_ep_ws in
  let stage_delay = ws.stage_delay_ws and stage_ep = ws.stage_ep_ws in
  let skew = ws.skew_ws and setup = t.setup in
  Array.fill stage_delay 0 (n_stages * stride) neg_infinity;
  Array.fill stage_ep 0 (n_stages * stride) (-1);
  Array.fill worst 0 lanes neg_infinity;
  Array.fill worst_ep 0 lanes (-1);
  for slot = 0 to Array.length t.flops - 1 do
    let cid = t.flops.(slot) in
    let pin = t.pin_off.(cid) in
    let arow = t.pin_net.(pin) * stride in
    let pw = t.pin_wire.(pin) in
    let erow = slot * stride in
    let srow =
      match t.capture_of.(cid) with
      | Some stage -> Stage.index stage * stride
      | None -> -1
    in
    for k = 0 to lanes - 1 do
      let a = arrival.(arow + k) +. pw +. setup -. skew.(k).(slot) in
      endpoint.(erow + k) <- a;
      if a > worst.(k) then begin
        worst.(k) <- a;
        worst_ep.(k) <- cid
      end;
      if srow >= 0 && a > stage_delay.(srow + k) then begin
        stage_delay.(srow + k) <- a;
        stage_ep.(srow + k) <- cid
      end
    done
  done;
  for k = 0 to lanes - 1 do
    if worst_ep.(k) = -1 then worst.(k) <- 0.0
  done

let analyze_into ?lanes t ws ~delays =
  let stride = ws.stride in
  let lanes = match lanes with Some l -> l | None -> stride in
  if lanes < 1 || lanes > stride then
    invalid_arg "Sta.analyze_into: lanes out of range";
  let nl = t.nl in
  let arrival = ws.arrival_ws in
  (* Bounds for the unsafe lane accesses below. *)
  if Array.length arrival <> Netlist.net_count nl * stride
     || Array.length delays < Netlist.cell_count nl * stride
  then invalid_arg "Sta.analyze_into: workspace or delays sized for another graph";
  (* One logical analysis per lane. *)
  Metrics.add m_analyzes lanes;
  Array.fill arrival 0 (Array.length arrival) 0.0;
  let pin_off = t.pin_off and pin_net = t.pin_net and pin_wire = t.pin_wire in
  let out_net = t.out_net and order = t.order in
  (* Launch points: flop outputs, offset by the launch edge's arrival
     in each lane.  Primary inputs arrive at t = 0 (already
     initialised). *)
  let skew = ws.skew_ws in
  for slot = 0 to Array.length t.flops - 1 do
    let cid = t.flops.(slot) in
    let orow = out_net.(cid) * stride and drow = cid * stride in
    for k = 0 to lanes - 1 do
      arrival.(orow + k) <- delays.(drow + k) +. skew.(k).(slot)
    done
  done;
  (* Blocks of four lanes: each pin's row offset and wire delay is
     loaded once for four independent accumulators, and each lane still
     runs [fanin_max]'s op sequence (same init, same [>] in pin order,
     then the delay add).  The lanes are rounded up to whole blocks
     while they fit the stride: the extra lanes of the last block are
     computed from whatever the workspace and [delays] hold there and
     never read, so a 2- or 3-lane pass costs one walk of the pins, not
     one per lane.  Only a workspace narrower than four lanes takes the
     per-lane loop. *)
  let blocked = min (stride land lnot 3) ((lanes + 3) land lnot 3) in
  for j = 0 to Array.length order - 1 do
    let cid = Array.unsafe_get order j in
    let off = Array.unsafe_get pin_off cid
    and stop = Array.unsafe_get pin_off (cid + 1) in
    let orow = Array.unsafe_get out_net cid * stride and drow = cid * stride in
    let k = ref 0 in
    while !k < blocked do
      let k0 = !k in
      let a0 = ref 0.0 and a1 = ref 0.0 and a2 = ref 0.0 and a3 = ref 0.0 in
      for p = off to stop - 1 do
        let r = (Array.unsafe_get pin_net p * stride) + k0 in
        let w = Array.unsafe_get pin_wire p in
        let x0 = Array.unsafe_get arrival r +. w in
        if x0 > !a0 then a0 := x0;
        let x1 = Array.unsafe_get arrival (r + 1) +. w in
        if x1 > !a1 then a1 := x1;
        let x2 = Array.unsafe_get arrival (r + 2) +. w in
        if x2 > !a2 then a2 := x2;
        let x3 = Array.unsafe_get arrival (r + 3) +. w in
        if x3 > !a3 then a3 := x3
      done;
      let o = orow + k0 and d = drow + k0 in
      Array.unsafe_set arrival o (!a0 +. Array.unsafe_get delays d);
      Array.unsafe_set arrival (o + 1) (!a1 +. Array.unsafe_get delays (d + 1));
      Array.unsafe_set arrival (o + 2) (!a2 +. Array.unsafe_get delays (d + 2));
      Array.unsafe_set arrival (o + 3) (!a3 +. Array.unsafe_get delays (d + 3));
      k := k0 + 4
    done;
    for k = blocked to lanes - 1 do
      Array.unsafe_set arrival (orow + k)
        (fanin_max arrival pin_net pin_wire off stop stride k
        +. Array.unsafe_get delays (drow + k))
    done
  done;
  endpoint_pass t ws ~lanes

let ws_worst ws k = ws.worst_ws.(k)
let ws_arrival ws nid k = ws.arrival_ws.((nid * ws.stride) + k)
let ws_worst_endpoint ws k = ws.worst_ep_ws.(k)

let ws_endpoint_delay ws cid k =
  let slot = ws.slot_of.(cid) in
  if slot < 0 then 0.0 else ws.endpoint_ws.((slot * ws.stride) + k)

let ws_endpoints_into ws k cids ~dst ~off =
  if k < 0 || k >= ws.stride then
    invalid_arg "Sta.ws_endpoints_into: lane out of range";
  if off < 0 || off + Array.length cids > Array.length dst then
    invalid_arg "Sta.ws_endpoints_into: destination too short";
  let stride = ws.stride in
  for j = 0 to Array.length cids - 1 do
    let slot = ws.slot_of.(cids.(j)) in
    dst.(off + j) <- (if slot < 0 then 0.0 else ws.endpoint_ws.((slot * stride) + k))
  done

let ws_stage_delay ws stage k =
  let i = (Stage.index stage * ws.stride) + k in
  if ws.stage_ep_ws.(i) >= 0 then Some ws.stage_delay_ws.(i) else None

(* A fresh 1-lane workspace, read back into the allocating record. *)
let analyze ?skew t ~delays =
  let ws = workspace t in
  Option.iter
    (fun f ->
      let row = skew_row ws 0 in
      Array.iteri (fun slot cid -> row.(slot) <- f cid) t.flops)
    skew;
  analyze_into t ws ~delays;
  let endpoint_delay = Array.make (Netlist.cell_count t.nl) 0.0 in
  Array.iteri (fun slot cid -> endpoint_delay.(cid) <- ws.endpoint_ws.(slot)) t.flops;
  let stage_worst =
    List.filter_map
      (fun s ->
        let si = Stage.index s in
        if ws.stage_ep_ws.(si) >= 0 then
          Some (s, ws.stage_delay_ws.(si), ws.stage_ep_ws.(si))
        else None)
      Stage.all
  in
  {
    arrival = ws.arrival_ws;
    endpoint_delay;
    worst = ws.worst_ws.(0);
    worst_endpoint = ws.worst_ep_ws.(0);
    stage_worst;
  }

(* The backward pass into [req] (one slot per net), overwritten. *)
let required_into t ~delays ~endpoint_required req =
  let nl = t.nl in
  let cells = nl.Netlist.cells in
  Array.fill req 0 (Array.length req) infinity;
  (* Endpoints: data must arrive by the endpoint's budget - setup (minus
     the D-pin wire delay, charged on the net). *)
  for slot = 0 to Array.length t.flops - 1 do
    let cid = t.flops.(slot) in
    let d_pin = cells.(cid).Netlist.fanins.(0) in
    let budget = endpoint_required t.capture_of.(cid) in
    let r = budget -. t.setup -. t.pin_wire.(t.pin_off.(cid)) in
    if r < req.(d_pin) then req.(d_pin) <- r
  done;
  (* Reverse topological order. *)
  for k = Array.length t.order - 1 downto 0 do
    let cid = t.order.(k) in
    let c = cells.(cid) in
    let r_out = req.(c.Netlist.fanout) in
    if Float.is_finite r_out then begin
      let r_in = r_out -. delays.(cid) in
      let off = t.pin_off.(cid) in
      let fanins = c.Netlist.fanins in
      for pin = 0 to Array.length fanins - 1 do
        let nid = fanins.(pin) in
        let r = r_in -. t.pin_wire.(off + pin) in
        if r < req.(nid) then req.(nid) <- r
      done
    end
  done

let required_with t ~delays ~endpoint_required =
  let req = Array.make (Netlist.net_count t.nl) infinity in
  required_into t ~delays ~endpoint_required req;
  req

let required t ~delays ~clock =
  required_with t ~delays ~endpoint_required:(fun _ -> clock)

(* ------------------------------------------------------------------ *)
(* A re-drivable view: the graph's topology with mutable masters.

   Changing a cell's master changes its own delay (drive resistance,
   intrinsic delay) and the load of every net it sinks (input cap), and
   through those loads the delays of their drivers.  [set_master]
   stages a change and marks the cell and its fanin nets dirty;
   [commit] re-evaluates the dirty nets' loads and then the delays of
   the dirty cells and of those nets' drivers, through the expressions
   [build] uses, so the committed arrays are always those of a fresh
   build of the re-driven netlist. *)

type view = {
  graph : t;
  masters : Cell_lib.t array;  (* per cell; staged changes included *)
  loads : float array;         (* per net, committed *)
  delays : float array;        (* per cell, committed *)
  v_ws : workspace;
  v_req : float array;         (* per net: latest backward pass *)
  net_dirty : bool array;
  dirty_nets : int array;
  mutable n_dirty_nets : int;
  cell_dirty : bool array;
  dirty_cells : int array;
  mutable n_dirty_cells : int;
  mutable redriven : bool;     (* some master differs from [graph]'s *)
}

let view t =
  let n_cells = Netlist.cell_count t.nl and n_nets = Netlist.net_count t.nl in
  {
    graph = t;
    masters = Array.map (fun (c : Netlist.cell) -> c.Netlist.cell) t.nl.Netlist.cells;
    loads = Array.copy t.net_load;
    delays = Array.copy t.base_delay;
    v_ws = workspace t;
    v_req = Array.make n_nets infinity;
    net_dirty = Array.make n_nets false;
    dirty_nets = Array.make n_nets 0;
    n_dirty_nets = 0;
    cell_dirty = Array.make n_cells false;
    dirty_cells = Array.make n_cells 0;
    n_dirty_cells = 0;
    redriven = false;
  }

let master v cid = v.masters.(cid)
let view_load v nid = v.loads.(nid)

let mark_cell v cid =
  if not v.cell_dirty.(cid) then begin
    v.cell_dirty.(cid) <- true;
    v.dirty_cells.(v.n_dirty_cells) <- cid;
    v.n_dirty_cells <- v.n_dirty_cells + 1
  end

let mark_net v nid =
  if not v.net_dirty.(nid) then begin
    v.net_dirty.(nid) <- true;
    v.dirty_nets.(v.n_dirty_nets) <- nid;
    v.n_dirty_nets <- v.n_dirty_nets + 1
  end

let set_master v cid (m : Cell_lib.t) =
  let old = v.masters.(cid) in
  if m.Cell_lib.kind <> old.Cell_lib.kind then
    invalid_arg "Sta.set_master: kind change not allowed";
  if m != old then begin
    v.masters.(cid) <- m;
    v.redriven <- true;
    mark_cell v cid;
    Array.iter (mark_net v) v.graph.nl.Netlist.cells.(cid).Netlist.fanins
  end

let commit v =
  let t = v.graph in
  let nl = t.nl in
  let lib = nl.Netlist.lib in
  for j = 0 to v.n_dirty_nets - 1 do
    let nid = v.dirty_nets.(j) in
    v.net_dirty.(nid) <- false;
    let net = nl.Netlist.nets.(nid) in
    v.loads.(nid) <- net_load_of lib t.wire_um v.masters net;
    match net.Netlist.driver with Some d -> mark_cell v d | None -> ()
  done;
  v.n_dirty_nets <- 0;
  for j = 0 to v.n_dirty_cells - 1 do
    let cid = v.dirty_cells.(j) in
    v.cell_dirty.(cid) <- false;
    v.delays.(cid) <-
      cell_delay lib v.masters.(cid) ~seq:(t.flop_slot.(cid) >= 0)
        v.loads.(nl.Netlist.cells.(cid).Netlist.fanout)
  done;
  v.n_dirty_cells <- 0

let analyze_view v =
  analyze_into v.graph v.v_ws ~delays:v.delays;
  v.v_ws

let required_view v ~endpoint_required =
  required_into v.graph ~delays:v.delays ~endpoint_required v.v_req;
  v.v_req

let freeze v =
  commit v;
  if not v.redriven then v.graph
  else
    let nl = Netlist.remap_cells v.graph.nl (fun c -> v.masters.(c.Netlist.id)) in
    (* [remap_cells] changes masters only: cells, nets and pins keep
       their ids, so the shared topology arrays ([order], [pin_off],
       [pin_net], [pin_wire], [out_net], the flop tables) stay valid. *)
    { v.graph with nl; net_load = Array.copy v.loads; base_delay = Array.copy v.delays }

let stage_delay result stage =
  List.find_map
    (fun (s, d, _) -> if Stage.equal s stage then Some d else None)
    result.stage_worst

let stage_endpoint_ids t stage = Array.copy t.stage_endpoints.(Stage.index stage)

let endpoints_of_stage t stage =
  Array.to_list t.stage_endpoints.(Stage.index stage)
