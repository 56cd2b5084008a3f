open Pvtol_netlist
module Cell_lib = Pvtol_stdcell.Cell
module Kind = Pvtol_stdcell.Kind

let n_stages = List.length Stage.all

(* analyze/workspace counters: the ratio of the two is the workspace
   reuse factor the allocation-free inner loop exists for. *)
module Metrics = Pvtol_util.Metrics

let m_workspaces = Metrics.counter "sta_workspace_total"
let m_analyzes = Metrics.counter "sta_analyze_total"
let m_inc_gates = Metrics.counter "sta_incremental_gates_total"
let m_fallbacks = Metrics.counter "sta_full_fallbacks_total"

type t = {
  nl : Netlist.t;
  order : int array;             (* combinational cells, topological *)
  wire_um : float array;         (* per net: tabulated wire length *)
  net_load : float array;        (* per net: sink pin caps + wire cap *)
  base_delay : float array;      (* per cell *)
  pin_off : int array;           (* CSR row offsets into pin_wire, length cells+1 *)
  pin_wire : float array;        (* flattened per-pin wire delays, pin order *)
  clk_to_q : float;
  setup : float;
  capture_of : Stage.t option array;  (* per cell *)
  flops : int array;
  stage_endpoints : int array array;  (* per Stage.index: capturing flops, id order *)
  flop_slot : int array;         (* per cell: index into [flops], -1 if comb *)
  level : int array;             (* per cell: comb logic depth, -1 if sequential *)
  level_off : int array;         (* CSR offsets of comb cells per level, n_levels+1 *)
}

let netlist t = t.nl

let wireload_model nl nid =
  let net = nl.Netlist.nets.(nid) in
  let fanout = Array.length net.Netlist.sinks in
  (* Representative 65nm wireload curve: a few um per sink. *)
  4.0 +. (3.0 *. float_of_int fanout)

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

(* The drive-dependent part of a timing graph: per-net loads from the
   sink pin caps plus the tabulated wire cap, then per-cell delays.
   Shared by [build] and [resize], so both do the same float ops. *)
let loads_and_delays nl wire_um =
  let lib = nl.Netlist.lib in
  let net_load =
    Array.map
      (fun (net : Netlist.net) ->
        let pins =
          Array.fold_left
            (fun acc (cid, _) ->
              acc +. nl.Netlist.cells.(cid).Netlist.cell.Cell_lib.input_cap)
            0.0 net.Netlist.sinks
        in
        let wire =
          if net.Netlist.driver = None && Array.length net.Netlist.sinks = 0 then 0.0
          else lib.Cell_lib.wire_cap_per_um *. wire_um.(net.Netlist.net_id)
        in
        pins +. wire)
      nl.Netlist.nets
  in
  let base_delay =
    Array.map
      (fun (c : Netlist.cell) ->
        let cell = c.Netlist.cell in
        let load = net_load.(c.Netlist.fanout) in
        if is_seq c then
          (* clk-to-q, with the same load dependence as a gate. *)
          lib.Cell_lib.clk_to_q +. (cell.Cell_lib.drive_res *. load)
        else cell.Cell_lib.d0 +. (cell.Cell_lib.drive_res *. load))
      nl.Netlist.cells
  in
  (net_load, base_delay)

let build nl ~wire_length ~capture =
  let lib = nl.Netlist.lib in
  (* One lookup per net: the per-pin wire delays below index this table
     rather than re-estimating a net once per sink. *)
  let wire_um = Array.init (Netlist.net_count nl) wire_length in
  let net_load, base_delay = loads_and_delays nl wire_um in
  (* Flattened CSR layout for the per-pin wire delays: one contiguous
     float array walked linearly by the forward pass, instead of a
     pointer chase through an array of per-cell arrays. *)
  let n_cells = Netlist.cell_count nl in
  let pin_off = Array.make (n_cells + 1) 0 in
  Array.iter
    (fun (c : Netlist.cell) ->
      pin_off.(c.Netlist.id + 1) <- Array.length c.Netlist.fanins)
    nl.Netlist.cells;
  for i = 1 to n_cells do
    pin_off.(i) <- pin_off.(i) + pin_off.(i - 1)
  done;
  let pin_wire = Array.make pin_off.(n_cells) 0.0 in
  Array.iter
    (fun (c : Netlist.cell) ->
      let off = pin_off.(c.Netlist.id) in
      Array.iteri
        (fun pin nid ->
          (* Lumped per-sink wire delay: half the net length. *)
          pin_wire.(off + pin) <-
            lib.Cell_lib.wire_delay_per_um *. (wire_um.(nid) /. 2.0))
        c.Netlist.fanins)
    nl.Netlist.cells;
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
  (* Levelization for the incremental worklist: a comb cell's level is
     one past its deepest combinational fanin (flop and primary-input
     fanins sit at depth 0), so an arrival change at level L can only
     disturb cells at levels > L and each level's bucket is drained at
     most once per incremental pass. *)
  let level = Array.make n_cells (-1) in
  Array.iter
    (fun cid ->
      let lv = ref 0 in
      Array.iter
        (fun nid ->
          match nl.Netlist.nets.(nid).Netlist.driver with
          | Some d when not (is_seq nl.Netlist.cells.(d)) ->
            if level.(d) + 1 > !lv then lv := level.(d) + 1
          | Some _ | None -> ())
        nl.Netlist.cells.(cid).Netlist.fanins;
      level.(cid) <- !lv)
    order;
  let n_levels =
    Array.fold_left (fun acc cid -> max acc (level.(cid) + 1)) 0 order
  in
  let level_off = Array.make (n_levels + 1) 0 in
  Array.iter (fun cid -> level_off.(level.(cid) + 1) <- level_off.(level.(cid) + 1) + 1) order;
  for i = 1 to n_levels do
    level_off.(i) <- level_off.(i) + level_off.(i - 1)
  done;
  {
    nl;
    order;
    wire_um;
    net_load;
    base_delay;
    pin_off;
    pin_wire;
    clk_to_q = lib.Cell_lib.clk_to_q;
    setup = lib.Cell_lib.setup;
    capture_of;
    flops;
    stage_endpoints;
    flop_slot;
    level;
    level_off;
  }

(* Same library, nets, per-cell pins and sequential/combinational
   split: everything [build] derives its structure from, so only the
   drive strengths may differ.  [Netlist.remap_cells] shares the nets
   array and every fanin array, so the physical equalities make the
   check cheap on the path sizing takes. *)
let same_connectivity (a : Netlist.t) (b : Netlist.t) =
  a.Netlist.lib == b.Netlist.lib
  && (a.Netlist.nets == b.Netlist.nets || a.Netlist.nets = b.Netlist.nets)
  && Array.length a.Netlist.cells = Array.length b.Netlist.cells
  && Array.for_all2
       (fun (x : Netlist.cell) (y : Netlist.cell) ->
         (x.Netlist.fanins == y.Netlist.fanins || x.Netlist.fanins = y.Netlist.fanins)
         && x.Netlist.fanout = y.Netlist.fanout
         && is_seq x = is_seq y)
       a.Netlist.cells b.Netlist.cells

let resize t nl =
  if not (same_connectivity t.nl nl) then
    invalid_arg "Sta.resize: netlist connectivity differs";
  let net_load, base_delay = loads_and_delays nl t.wire_um in
  { t with nl; net_load; base_delay }

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

type workspace = {
  arrival_ws : float array;         (* per net *)
  endpoint_delay_ws : float array;  (* per cell *)
  stage_delay_ws : float array;     (* per Stage.index; meaningful iff endpoint >= 0 *)
  stage_endpoint_ws : int array;    (* per Stage.index; -1 = no endpoint *)
  mutable worst_ws : float;
  mutable worst_endpoint_ws : int;
}

let workspace t =
  Metrics.incr m_workspaces;
  {
    arrival_ws = Array.make (Netlist.net_count t.nl) 0.0;
    endpoint_delay_ws = Array.make (Netlist.cell_count t.nl) 0.0;
    stage_delay_ws = Array.make n_stages neg_infinity;
    stage_endpoint_ws = Array.make n_stages (-1);
    worst_ws = 0.0;
    worst_endpoint_ws = -1;
  }

let zero_skew = fun (_ : Netlist.cell_id) -> 0.0

(* Endpoint reduction over the current arrivals — shared verbatim by
   the full and the incremental forward passes, so the two agree bit
   for bit by construction. *)
let endpoint_pass ~skew t ws =
  let nl = t.nl in
  let arrival = ws.arrival_ws in
  let pin_wire = t.pin_wire and pin_off = t.pin_off in
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
      let a = arrival.(d_pin) +. pin_wire.(pin_off.(cid)) +. t.setup -. skew cid in
      endpoint_delay.(cid) <- a;
      if a > ws.worst_ws then begin
        ws.worst_ws <- a;
        ws.worst_endpoint_ws <- cid
      end;
      match t.capture_of.(cid) with
      | Some stage ->
        let si = Stage.index stage in
        if a > ws.stage_delay_ws.(si) then begin
          ws.stage_delay_ws.(si) <- a;
          ws.stage_endpoint_ws.(si) <- cid
        end
      | None -> ())
    t.flops;
  if ws.worst_endpoint_ws = -1 then ws.worst_ws <- 0.0

let analyze_into ?skew t ws ~delays =
  Metrics.incr m_analyzes;
  let nl = t.nl in
  let skew = match skew with Some f -> f | None -> zero_skew in
  let arrival = ws.arrival_ws in
  Array.fill arrival 0 (Array.length arrival) 0.0;
  (* Launch points: flop outputs, offset by the launch edge's arrival. *)
  Array.iter
    (fun cid ->
      arrival.(nl.Netlist.cells.(cid).Netlist.fanout) <- delays.(cid) +. skew cid)
    t.flops;
  (* Primary inputs arrive at t = 0 (already initialised). *)
  let pin_wire = t.pin_wire and pin_off = t.pin_off in
  Array.iter
    (fun cid ->
      let c = nl.Netlist.cells.(cid) in
      let fanins = c.Netlist.fanins in
      let off = pin_off.(cid) in
      let acc = ref 0.0 in
      for pin = 0 to Array.length fanins - 1 do
        let a = arrival.(fanins.(pin)) +. pin_wire.(off + pin) in
        if a > !acc then acc := a
      done;
      arrival.(c.Netlist.fanout) <- !acc +. delays.(cid))
    t.order;
  endpoint_pass ~skew t ws

let ws_worst ws = ws.worst_ws
let ws_worst_endpoint ws = ws.worst_endpoint_ws
let ws_endpoint_delay ws cid = ws.endpoint_delay_ws.(cid)

let ws_stage_delay ws stage =
  let si = Stage.index stage in
  if ws.stage_endpoint_ws.(si) >= 0 then Some ws.stage_delay_ws.(si) else None

(* ------------------------------------------------------------------ *)
(* Batched structure-of-arrays analysis.

   One row of [stride] lanes per cell/net: lane [k] of every row is
   sample [k], so the forward pass touches each graph edge once per
   block instead of once per sample, and the per-cell bookkeeping
   (fanin walk, CSR offsets, bounds checks on the topo order) is
   amortized over the whole block.  Within a lane the arithmetic — op
   order, accumulator init, [>] comparisons — is exactly [analyze_into]
   on that lane's delay column, so each lane's results are bit-identical
   to a scalar analysis of the same delays. *)

type batch_workspace = {
  stride_b : int;
  delays_b : float array;       (* cells x stride, cell-major; caller-filled *)
  arrival_b : float array;      (* nets x stride *)
  endpoint_b : float array;     (* flop slots x stride *)
  acc_b : float array;          (* stride scratch *)
  worst_b : float array;        (* per lane *)
  worst_ep_b : int array;       (* per lane *)
  stage_delay_b : float array;  (* n_stages x stride *)
  stage_ep_b : int array;       (* n_stages x stride *)
}

let batch_workspace ?(lanes = 32) t =
  if lanes < 1 then invalid_arg "Sta.batch_workspace: lanes < 1";
  Metrics.incr m_workspaces;
  {
    stride_b = lanes;
    delays_b = Array.make (Netlist.cell_count t.nl * lanes) 0.0;
    arrival_b = Array.make (Netlist.net_count t.nl * lanes) 0.0;
    endpoint_b = Array.make (max 1 (Array.length t.flops) * lanes) 0.0;
    acc_b = Array.make lanes 0.0;
    worst_b = Array.make lanes 0.0;
    worst_ep_b = Array.make lanes (-1);
    stage_delay_b = Array.make (n_stages * lanes) neg_infinity;
    stage_ep_b = Array.make (n_stages * lanes) (-1);
  }

let batch_stride bw = bw.stride_b
let batch_delays bw = bw.delays_b

let analyze_batch_into t bw ~lanes =
  if lanes < 1 || lanes > bw.stride_b then
    invalid_arg "Sta.analyze_batch_into: lanes out of range";
  (* One logical analysis per lane, so the analyze counter stays
     comparable with the scalar passes. *)
  Metrics.add m_analyzes lanes;
  let nl = t.nl in
  let cap = bw.stride_b in
  let arrival = bw.arrival_b in
  let delays = bw.delays_b in
  Array.fill arrival 0 (Array.length arrival) 0.0;
  (* Unsafe lane accesses are sound: every row index is [id * cap] for
     an id bounded by the array's construction ([cells * cap],
     [nets * cap], [flops * cap]) and [k < lanes <= cap]. *)
  (* Launch points: flop outputs (ideal clock). *)
  Array.iter
    (fun cid ->
      Array.blit delays (cid * cap) arrival
        (nl.Netlist.cells.(cid).Netlist.fanout * cap)
        lanes)
    t.flops;
  let pin_wire = t.pin_wire and pin_off = t.pin_off in
  let acc = bw.acc_b in
  Array.iter
    (fun cid ->
      let c = nl.Netlist.cells.(cid) in
      let fanins = c.Netlist.fanins in
      let off = pin_off.(cid) in
      Array.fill acc 0 lanes 0.0;
      for pin = 0 to Array.length fanins - 1 do
        let frow = Array.unsafe_get fanins pin * cap in
        let pw = Array.unsafe_get pin_wire (off + pin) in
        for k = 0 to lanes - 1 do
          let a = Array.unsafe_get arrival (frow + k) +. pw in
          if a > Array.unsafe_get acc k then Array.unsafe_set acc k a
        done
      done;
      let orow = c.Netlist.fanout * cap in
      let drow = cid * cap in
      for k = 0 to lanes - 1 do
        Array.unsafe_set arrival (orow + k)
          (Array.unsafe_get acc k +. Array.unsafe_get delays (drow + k))
      done)
    t.order;
  Array.fill bw.endpoint_b 0 (Array.length bw.endpoint_b) 0.0;
  Array.fill bw.stage_delay_b 0 (n_stages * cap) neg_infinity;
  Array.fill bw.stage_ep_b 0 (n_stages * cap) (-1);
  Array.fill bw.worst_b 0 lanes neg_infinity;
  Array.fill bw.worst_ep_b 0 lanes (-1);
  Array.iteri
    (fun slot cid ->
      let c = nl.Netlist.cells.(cid) in
      let arow = c.Netlist.fanins.(0) * cap in
      let pw = pin_wire.(pin_off.(cid)) in
      let setup = t.setup in
      let erow = slot * cap in
      match t.capture_of.(cid) with
      | Some stage ->
        let srow = Stage.index stage * cap in
        for k = 0 to lanes - 1 do
          let a = arrival.(arow + k) +. pw +. setup in
          bw.endpoint_b.(erow + k) <- a;
          if a > bw.worst_b.(k) then begin
            bw.worst_b.(k) <- a;
            bw.worst_ep_b.(k) <- cid
          end;
          if a > bw.stage_delay_b.(srow + k) then begin
            bw.stage_delay_b.(srow + k) <- a;
            bw.stage_ep_b.(srow + k) <- cid
          end
        done
      | None ->
        for k = 0 to lanes - 1 do
          let a = arrival.(arow + k) +. pw +. setup in
          bw.endpoint_b.(erow + k) <- a;
          if a > bw.worst_b.(k) then begin
            bw.worst_b.(k) <- a;
            bw.worst_ep_b.(k) <- cid
          end
        done)
    t.flops;
  for k = 0 to lanes - 1 do
    if bw.worst_ep_b.(k) = -1 then bw.worst_b.(k) <- 0.0
  done

let bw_worst bw k = bw.worst_b.(k)
let bw_worst_endpoint bw k = bw.worst_ep_b.(k)

let bw_endpoint_delay t bw cid k =
  let slot = t.flop_slot.(cid) in
  if slot < 0 then 0.0 else bw.endpoint_b.((slot * bw.stride_b) + k)

let bw_stage_delay bw stage k =
  let srow = Stage.index stage * bw.stride_b in
  if bw.stage_ep_b.(srow + k) >= 0 then Some bw.stage_delay_b.(srow + k)
  else None

(* ------------------------------------------------------------------ *)
(* Incremental re-propagation.

   Consecutive analyses of the post-silicon settle loop differ only in
   the supply assignment of a few islands, so most cell delays are
   bitwise unchanged between calls.  The workspace keeps the previous
   delay vector and the previous arrivals; an analysis seeds a
   levelized worklist with the cells whose delay changed bitwise and
   re-propagates only their fan-out cones, pruning any cell whose
   recomputed arrival is bitwise unchanged.  The result is
   bit-identical to [analyze_into]: every delay change is re-propagated
   through the same per-cell arithmetic, and the endpoint reduction is
   shared code.  When the seed set or the touched cone exceeds
   [max_frac] of the netlist the pass abandons incrementality and falls
   back to one full forward pass (counted in
   [sta_full_fallbacks_total]). *)

let max_frac = 0.25

type inc_workspace = {
  iw_ws : workspace;
  prev : float array;      (* per cell: delays incorporated in arrivals *)
  mutable iw_valid : bool;
  bucket : int array;      (* comb worklist, bucketed by level (level_off) *)
  bucket_len : int array;  (* per level *)
  in_bucket : bool array;  (* per cell *)
}

let inc_workspace t =
  let n_cells = Netlist.cell_count t.nl in
  {
    iw_ws = workspace t;
    prev = Array.make (max 1 n_cells) 0.0;
    iw_valid = false;
    bucket = Array.make (max 1 (Array.length t.order)) 0;
    bucket_len = Array.make (max 1 (Array.length t.level_off - 1)) 0;
    in_bucket = Array.make (max 1 n_cells) false;
  }

let inc_ws iw = iw.iw_ws
let inc_invalidate iw = iw.iw_valid <- false

let analyze_incremental_into t iw ~delays =
  let nl = t.nl in
  let n_cells = Netlist.cell_count nl in
  let ws = iw.iw_ws in
  let full () =
    analyze_into t ws ~delays;
    Array.blit delays 0 iw.prev 0 n_cells;
    iw.iw_valid <- true
  in
  if not iw.iw_valid then full ()
  else begin
    let changed cid = delays.(cid) <> iw.prev.(cid) in
    let limit =
      max 1 (int_of_float (max_frac *. float_of_int (max 1 n_cells)))
    in
    let n_changed = ref 0 in
    for cid = 0 to n_cells - 1 do
      if changed cid then incr n_changed
    done;
    if !n_changed > limit then begin
      Metrics.incr m_fallbacks;
      full ()
    end
    else begin
      let arrival = ws.arrival_ws in
      let push cid =
        if not iw.in_bucket.(cid) then begin
          iw.in_bucket.(cid) <- true;
          let lv = t.level.(cid) in
          iw.bucket.(t.level_off.(lv) + iw.bucket_len.(lv)) <- cid;
          iw.bucket_len.(lv) <- iw.bucket_len.(lv) + 1
        end
      in
      let push_sinks nid =
        Array.iter
          (fun (sink, _) ->
            if not (is_seq nl.Netlist.cells.(sink)) then push sink)
          nl.Netlist.nets.(nid).Netlist.sinks
      in
      (* Seed: changed flops move their launch arrival, changed comb
         cells re-evaluate in place. *)
      Array.iter
        (fun cid ->
          if changed cid then begin
            iw.prev.(cid) <- delays.(cid);
            let a = delays.(cid) in
            let net = nl.Netlist.cells.(cid).Netlist.fanout in
            if a <> arrival.(net) then begin
              arrival.(net) <- a;
              push_sinks net
            end
          end)
        t.flops;
      Array.iter (fun cid -> if changed cid then push cid) t.order;
      let pin_wire = t.pin_wire and pin_off = t.pin_off in
      let n_levels = Array.length iw.bucket_len in
      let processed = ref 0 in
      let aborted = ref false in
      let lv = ref 0 in
      while (not !aborted) && !lv < n_levels do
        let base = t.level_off.(!lv) in
        (* Pushes triggered at this level land strictly deeper, so the
           bucket length is fixed while it drains. *)
        let len = iw.bucket_len.(!lv) in
        let j = ref 0 in
        while (not !aborted) && !j < len do
          let cid = iw.bucket.(base + !j) in
          iw.in_bucket.(cid) <- false;
          incr processed;
          if !processed > limit then aborted := true
          else begin
            iw.prev.(cid) <- delays.(cid);
            let c = nl.Netlist.cells.(cid) in
            let fanins = c.Netlist.fanins in
            let off = pin_off.(cid) in
            let acc = ref 0.0 in
            for pin = 0 to Array.length fanins - 1 do
              let a = arrival.(fanins.(pin)) +. pin_wire.(off + pin) in
              if a > !acc then acc := a
            done;
            let a = !acc +. delays.(cid) in
            if a <> arrival.(c.Netlist.fanout) then begin
              arrival.(c.Netlist.fanout) <- a;
              push_sinks c.Netlist.fanout
            end
          end;
          incr j
        done;
        iw.bucket_len.(!lv) <- 0;
        incr lv
      done;
      if !aborted then begin
        Array.fill iw.bucket_len 0 n_levels 0;
        Array.fill iw.in_bucket 0 n_cells false;
        Metrics.incr m_fallbacks;
        full ()
      end
      else begin
        Metrics.add m_inc_gates !processed;
        Metrics.incr m_analyzes;
        endpoint_pass ~skew:zero_skew t ws
      end
    end
  end

let analyze ?skew t ~delays =
  let ws = workspace t in
  analyze_into ?skew t ws ~delays;
  let stage_worst =
    List.filter_map
      (fun s ->
        let si = Stage.index s in
        if ws.stage_endpoint_ws.(si) >= 0 then
          Some (s, ws.stage_delay_ws.(si), ws.stage_endpoint_ws.(si))
        else None)
      Stage.all
  in
  {
    arrival = ws.arrival_ws;
    endpoint_delay = ws.endpoint_delay_ws;
    worst = ws.worst_ws;
    worst_endpoint = ws.worst_endpoint_ws;
    stage_worst;
  }

let required_with t ~delays ~endpoint_required =
  let nl = t.nl in
  let req = Array.make (Netlist.net_count nl) infinity in
  (* Endpoints: data must arrive by the endpoint's budget - setup (minus
     the D-pin wire delay, charged on the net). *)
  Array.iter
    (fun cid ->
      let c = nl.Netlist.cells.(cid) in
      let d_pin = c.Netlist.fanins.(0) in
      let budget = endpoint_required t.capture_of.(cid) in
      let r = budget -. t.setup -. t.pin_wire.(t.pin_off.(cid)) in
      if r < req.(d_pin) then req.(d_pin) <- r)
    t.flops;
  (* Reverse topological order. *)
  for k = Array.length t.order - 1 downto 0 do
    let cid = t.order.(k) in
    let c = nl.Netlist.cells.(cid) in
    let r_out = req.(c.Netlist.fanout) in
    if Float.is_finite r_out then begin
      let r_in = r_out -. delays.(cid) in
      let off = t.pin_off.(cid) in
      Array.iteri
        (fun pin nid ->
          let r = r_in -. t.pin_wire.(off + pin) in
          if r < req.(nid) then req.(nid) <- r)
        c.Netlist.fanins
    end
  done;
  req

let required t ~delays ~clock =
  required_with t ~delays ~endpoint_required:(fun _ -> clock)

let stage_delay result stage =
  List.find_map
    (fun (s, d, _) -> if Stage.equal s stage then Some d else None)
    result.stage_worst

let stage_endpoint_ids t stage = Array.copy t.stage_endpoints.(Stage.index stage)

let endpoints_of_stage t stage =
  Array.to_list t.stage_endpoints.(Stage.index stage)
