open Pvtol_netlist
module Sta = Pvtol_timing.Sta
module Clock_tree = Pvtol_timing.Clock_tree
module Paths = Pvtol_timing.Paths
module Sampler = Pvtol_variation.Sampler
module Position = Pvtol_variation.Position
module Power = Pvtol_power.Power
module Placement = Pvtol_place.Placement
module Cell = Pvtol_stdcell.Cell
module Kind = Pvtol_stdcell.Kind
module Process = Pvtol_stdcell.Process
module Metrics = Pvtol_util.Metrics

let m_vi_applied = Metrics.counter "compensation_vi_applied_total"
let m_chipwide_applied = Metrics.counter "compensation_chipwide_applied_total"
let m_skew_applied = Metrics.counter "compensation_skew_applied_total"
let m_buffers_applied = Metrics.counter "compensation_buffers_applied_total"
let m_skew_flops = Metrics.counter "skew_tuned_flops_total"
let m_buffers_inserted = Metrics.counter "buffers_inserted_total"
let m_dies = Metrics.counter "postsilicon_dies_total"
let m_raised = Metrics.counter "postsilicon_islands_raised_total"
let m_settle_lanes = Metrics.counter "compensation_settle_lanes_total"
let m_skew_passes = Metrics.counter "skew_settle_passes_total"

let analyzed = Pvtol_ssta.Scenario.analyzed_stages

(* ------------------------------------------------------------------ *)
(* Shared per-die physics                                               *)

type ctx = {
  sampler : Sampler.t;
  placement : Placement.t;
  sta : Sta.t;
  clock : float;
  base : float array;
  n_cells : int;
  power_chip_wide : float;
  power_baseline : float;
  caps : int array;  (* the analyzed stages' capture flops, stage by stage *)
  cap_bounds : int array;  (* stage [i] of [analyzed] owns caps [b.(i), b.(i+1)) *)
}

type detect = {
  violating : int;
  worst_low_ns : float;
}

(* [draw] scales a die at both supplies into its lane's own vectors;
   [detect_lanes] times up to [batch_lanes] drawn dies as the lanes of
   one STA pass, keeps their verdicts, records their number in [dies]
   and numbers the batch ([batch]); [select] makes one of them the die
   the strategies re-time, by pointing [low_delays]/[high_delays] at
   its vectors.  The island strategy's first apply on a batch settles
   every failing die of it ([settle]): per lane the raise it stopped at
   ([raised], [meets]) and its all-high verdict ([high_meets]).
   [settled] is the batch the latest settle covered, so chip-wide reads
   the verdict the settle already has, and [settled_on] the island
   domains it raised.  While it runs, [todo] holds per lane what is
   left to price, [raised] the next raise and [mono] whether the die's
   high-supply delays are at most its low-supply ones on every cell;
   [pass_die]/[pass_raise] name each lane of a pass over [block], each
   entry a select between two vectors.  [detect_lanes] also keeps each
   lane's capture flops' endpoint delays, which the skew settle's first
   guess and the buffer settle read for the selected [lane]; the skew
   settle keeps its tune states in [tunes] and prices them on
   [lanes_ws], whose skew rows it sets back to zero, and the buffer
   settle its trims in [trims]. *)
type scratch = {
  ws : Sta.workspace;  (* 1 lane: a lone die's detect, a 1-lane settle pass, chip-wide's own *)
  lanes_ws : Sta.workspace;  (* [batch_lanes] lanes: a batch's detect, the settles *)
  block : float array;  (* cells x [batch_lanes], cell-major *)
  systematic_buf : float array;  (* [systematic_into]'s map *)
  shifted_buf : float array;  (* [shifted_into]'s map *)
  lgates : float array;
  fit : Sampler.die_fit;  (* [draw]'s per-die fit *)
  lows : float array array;  (* per lane: the die's delays at vdd_low *)
  highs : float array array;  (* per lane: at vdd_high *)
  detects : detect array;  (* per lane: the latest batch's verdicts *)
  arrivals : float array;  (* [batch_lanes] x caps, lane-major: endpoint delays at vdd_low *)
  tunes : float array;  (* [batch_lanes] x caps, lane-major: skew tune states *)
  trims : int array;  (* per cap: buffer trims *)
  raised : int array;  (* per lane: the island settle's raise *)
  meets : bool array;  (* per lane: whether that raise meets *)
  high_meets : bool array;  (* per lane: the all-high verdict *)
  todo : int array;  (* per lane: [todo_raise] and [todo_high] bits *)
  mono : bool array;  (* per lane: high <= low on every cell *)
  pass_die : int array;  (* per pass lane: the batch lane it prices *)
  pass_raise : int array;  (* per pass lane: its raise, [all_high] for all-high *)
  mutable low_delays : float array;  (* the selected die's [lows] entry *)
  mutable high_delays : float array;
  mutable lane : int;
  mutable dies : int;
  mutable batch : int;
  mutable settled : int;
  mutable settled_on : int array;
}

type outcome = {
  meets : bool;
  knob : int;
  power_mw : float;
  area_um2 : float;
}

(* What a timing graph keeps across ops: its context, the scratches
   returned by finished fan-outs, the island domains of each partition
   a strategy was built on, and the design-time state of the skew and
   buffer strategies (the clock tree's untuned skew, the nominal buffer
   sites), computed by the first build on the graph.  Each is a
   cell-sized array or holds some, so an op that rebuilt them would
   grow the major heap by that much.
   The graph is an ephemeron key, so all of it goes with its flow. *)
type skew_base = {
  row0 : float array;  (* per flop slot: the untuned skew, offset + 0.0 *)
  cap_slot : int array;  (* per cap: its flop slot *)
  cap_off : float array;  (* per cap: its clock-tree offset *)
  cap_reach : float array;  (* per cap: the latest offset launching into its D pin *)
}

type graph_state = {
  mutable ctx : ctx option;
  mutable free : scratch list;
  mutable domains : (Island.partition * int array) list;
  mutable skew_base : skew_base option;
  mutable sites : int list option;
}

let graphs : (Sta.t, graph_state) Ephemeron.K1.Bucket.t =
  Ephemeron.K1.Bucket.make ()

let graph_lock = Mutex.create ()

let graph_state sta =
  Mutex.protect graph_lock (fun () ->
      match Ephemeron.K1.Bucket.find graphs sta with
      | Some g -> g
      | None ->
        let g =
          { ctx = None; free = []; domains = []; skew_base = None; sites = None }
        in
        Ephemeron.K1.Bucket.add graphs sta g;
        g)

(* [find g], else [make ()] kept by [keep g]; [make] runs outside the
   lock, and a racing build's value (the same one) is dropped. *)
let once_per_graph sta find make keep =
  let g = graph_state sta in
  match Mutex.protect graph_lock (fun () -> find g) with
  | Some x -> x
  | None ->
    let x = make () in
    Mutex.protect graph_lock (fun () ->
        match find g with
        | Some x -> x
        | None ->
          keep g x;
          x)

let context (t : Flow.t) =
  let sta = Flow.sta t in
  once_per_graph sta
    (fun g -> g.ctx)
    (fun () ->
      let power_chip_wide =
        Flow.power_mw t ~position:Position.point_b Flow.Chip_wide_high
      in
      let power_baseline =
        Flow.power_mw t ~position:Position.point_b Flow.Baseline_low
      in
      let stage_caps = List.map (Sta.stage_endpoint_ids sta) analyzed in
      let cap_bounds = Array.make (List.length analyzed + 1) 0 in
      List.iteri
        (fun i caps -> cap_bounds.(i + 1) <- cap_bounds.(i) + Array.length caps)
        stage_caps;
      {
        sampler = Flow.sampler t;
        placement = Flow.placement t;
        sta;
        clock = Flow.clock t;
        base = Sta.nominal_delays sta;
        n_cells = Netlist.cell_count (Flow.netlist t);
        power_chip_wide;
        power_baseline;
        caps = Array.concat stage_caps;
        cap_bounds;
      })
    (fun g c -> g.ctx <- Some c)

(* Lanes of a detect batch and of a settle pass. *)
let batch_lanes = 4

let scratch c =
  let lows = Array.init batch_lanes (fun _ -> Array.make c.n_cells 0.0) in
  let highs = Array.init batch_lanes (fun _ -> Array.make c.n_cells 0.0) in
  let n_caps = Array.length c.caps in
  {
    ws = Sta.workspace c.sta;
    lanes_ws = Sta.workspace ~lanes:batch_lanes c.sta;
    block = Array.make (c.n_cells * batch_lanes) 0.0;
    systematic_buf = Array.make c.n_cells 0.0;
    shifted_buf = Array.make c.n_cells 0.0;
    lgates = Array.make c.n_cells 0.0;
    fit = Sampler.die_fit c.sampler;
    lows;
    highs;
    detects = Array.make batch_lanes { violating = 0; worst_low_ns = 0.0 };
    arrivals = Array.make (batch_lanes * n_caps) 0.0;
    tunes = Array.make (batch_lanes * n_caps) 0.0;
    trims = Array.make n_caps 0;
    raised = Array.make batch_lanes 0;
    meets = Array.make batch_lanes false;
    high_meets = Array.make batch_lanes false;
    todo = Array.make batch_lanes 0;
    mono = Array.make batch_lanes false;
    pass_die = Array.make batch_lanes 0;
    pass_raise = Array.make batch_lanes 0;
    low_delays = lows.(0);
    high_delays = highs.(0);
    lane = 0;
    dies = 0;
    batch = 0;
    settled = -1;
    settled_on = [||];
  }

let with_scratches c f =
  let g = graph_state c.sta in
  let leased = ref [] in
  let lease () =
    let reused =
      Mutex.protect graph_lock (fun () ->
          match g.free with
          | sc :: rest ->
            g.free <- rest;
            Some sc
          | [] -> None)
    in
    let sc = match reused with Some sc -> sc | None -> scratch c in
    Mutex.protect graph_lock (fun () -> leased := sc :: !leased);
    sc
  in
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect graph_lock (fun () -> g.free <- List.rev_append !leased g.free))
    (fun () -> f lease)

let clock c = c.clock
let nominal_delays c = c.base
let power_baseline_mw c = c.power_baseline
let power_chip_wide_mw c = c.power_chip_wide

let systematic c position =
  Sampler.systematic_lgates c.sampler c.placement position

let systematic_into c sc position =
  Sampler.systematic_lgates_into c.sampler c.placement position
    ~out:sc.systematic_buf;
  sc.systematic_buf

let shifted_into c sc ~systematic ~cells ~dir ~theta =
  Sampler.shifted_systematic c.sampler ~systematic ~cells ~dir ~theta
    ~out:sc.shifted_buf;
  sc.shifted_buf

(* Analyzed stages failing in lane [k] of a finished pass: bit [i] of
   the mask is stage [i] of [analyzed]. *)
let failing_mask ws k clock =
  let rec go i mask = function
    | [] -> mask
    | s :: rest ->
      let mask =
        match Sta.ws_stage_delay ws s k with
        | Some d when d > clock +. 1e-12 -> mask lor (1 lsl i)
        | Some _ | None -> mask
      in
      go (i + 1) mask rest
  in
  go 0 0 analyzed

let rec popcount m = if m = 0 then 0 else (m land 1) + popcount (m lsr 1)

let violating_in ws k clock = popcount (failing_mask ws k clock)

let draw c sc k ~exact_low ~systematic ~raw rng =
  if k < 0 || k >= batch_lanes then
    invalid_arg "Compensation.draw: lane out of range";
  (* One random Lgate realisation for this die; every strategy below
     re-times the same realisation.  The single [sample_lgates] call is
     the die's only RNG consumption, so per-die streams are identical
     for every strategy subset a caller evaluates. *)
  Sampler.sample_lgates c.sampler ~systematic ~raw rng sc.lgates;
  Sampler.scale_die sc.fit ~exact_low ~base:c.base
    ~lgates:sc.lgates ~low:sc.lows.(k) ~high:sc.highs.(k)

let load c sc k ~low ~high =
  if k < 0 || k >= batch_lanes then
    invalid_arg "Compensation.load: lane out of range";
  if Array.length low <> c.n_cells || Array.length high <> c.n_cells then
    invalid_arg "Compensation.load: vectors sized for another design";
  Array.blit low 0 sc.lows.(k) 0 c.n_cells;
  Array.blit high 0 sc.highs.(k) 0 c.n_cells

(* Lane [k]'s verdict, read off a finished pass, and what the skew and
   buffer settles keep of it: its capture flops' endpoint delays. *)
let verdict c sc ws k =
  let worst_low =
    List.fold_left
      (fun acc s ->
        match Sta.ws_stage_delay ws s k with
        | Some d -> Float.max acc d
        | None -> acc)
      0.0 analyzed
  in
  Sta.ws_endpoints_into ws k c.caps ~dst:sc.arrivals
    ~off:(k * Array.length c.caps);
  { violating = violating_in ws k c.clock; worst_low_ns = worst_low }

let detect_lanes c sc m =
  if m < 1 || m > batch_lanes then
    invalid_arg "Compensation.detect_lanes: lanes out of range";
  (* A lone die takes the 1-lane workspace over its own vector: one lane
     of the 4-lane workspace would still walk a block of four (full
     design: ~1.7 ms against 1.1-1.5 ms).  A batch interleaves its low
     vectors into [block]'s columns.  Each lane is bit-identical to a
     1-lane pass. *)
  let ws =
    if m = 1 then begin
      Sta.analyze_into c.sta sc.ws ~delays:sc.lows.(0);
      sc.ws
    end
    else begin
      let block = sc.block in
      for k = 0 to m - 1 do
        let low = sc.lows.(k) in
        for i = 0 to c.n_cells - 1 do
          block.((i * batch_lanes) + k) <- low.(i)
        done
      done;
      Sta.analyze_into ~lanes:m c.sta sc.lanes_ws ~delays:block;
      sc.lanes_ws
    end
  in
  for k = 0 to m - 1 do
    sc.detects.(k) <- verdict c sc ws k
  done;
  sc.dies <- m;
  sc.batch <- sc.batch + 1;
  Metrics.add m_dies m

let select sc k =
  sc.low_delays <- sc.lows.(k);
  sc.high_delays <- sc.highs.(k);
  sc.lane <- k;
  sc.detects.(k)

let detect c sc ~systematic rng =
  draw c sc 0 ~exact_low:true ~systematic ~raw:ignore rng;
  detect_lanes c sc 1;
  select sc 0

(* ------------------------------------------------------------------ *)
(* The strategy interface                                               *)

type strategy = {
  name : string;
  title : string;
  knob_units : string;
  static_area_um2 : float;
  max_knob : int;
  fresh_apply : unit -> scratch -> detect -> outcome;
}

(* Per-element cost of a post-silicon knob built from a library buffer:
   leakage at the low supply and nominal Lgate, plus switching at
   [toggle_rate] output toggles per cycle into a like-sized load.
   fJ/toggle x toggles/cycle / ns = uW; x1e-3 -> mW; nW x1e-6 -> mW. *)
let element_power_mw lib (cell : Cell.t) ~clock ~toggle_rate =
  let process = lib.Cell.process in
  let vdd = process.Process.vdd_low in
  let lgate_nm = process.Process.l_nominal_nm in
  let sw_fj =
    Cell.switching_energy_fj lib cell ~vdd ~load_ff:cell.Cell.input_cap
  in
  (sw_fj *. toggle_rate /. clock *. 1e-3)
  +. (Cell.leakage_nw lib cell ~vdd ~lgate_nm *. 1e-6)

(* ------------------------------------------------------------------ *)
(* Strategy 1: the paper's voltage islands                              *)

(* The island settle of a detect batch: the sensors report each die's
   scenario, the controller raises that many islands, [r0 =
   min violating n_islands], and keeps raising one more while
   violations persist.  Every failing die of the batch is priced at
   once: a pass holds one lane per die still failing, at its next
   raise (lane [j]: islands [1..pass_raise.(j)] of die [pass_die.(j)]
   at the high supply), so most dies, which meet at [r0], cost one
   lane.  A die prices its all-high configuration (for chip-wide) only
   if none of its raises met: where a raise meets, all-high meets too,
   since its delays are at most that raise's cell by cell and the STA
   pass is a composition of max and round-to-nearest adds, both
   monotone.  That holds for a die whose high-supply delays are at most
   its low-supply ones on every cell, which the first pass checks as
   it fills; a die that fails the check prices its all-high lane
   anyway.  A pass of one lane runs on the 1-lane workspace.  Each lane
   is bit-identical to a 1-lane pass over its own supply
   configuration, so every verdict is the sequential rule's. *)
let todo_raise = 1
let todo_high = 2
let all_high = max_int

(* Lanes of the next pass: per die still to settle, in lane order, its
   next raise, then its all-high configuration; at most [batch_lanes],
   the rest wait for a later pass. *)
let gather sc =
  let lanes = ref 0 in
  let add k r =
    if !lanes < batch_lanes then begin
      sc.pass_die.(!lanes) <- k;
      sc.pass_raise.(!lanes) <- r;
      sc.todo.(k) <- sc.todo.(k) land lnot (if r = all_high then todo_high else todo_raise);
      incr lanes
    end
  in
  for k = 0 to sc.dies - 1 do
    if sc.todo.(k) land todo_raise <> 0 then add k sc.raised.(k);
    if sc.todo.(k) land todo_high <> 0 then add k all_high
  done;
  !lanes

(* Pass lane [j]'s delays into [dst] at [off + i * stride] for cell [i];
   with [check], whether the die's high supply is at most its low one on
   every cell ([not (h <= l)] also catches a NaN). *)
let fill c sc ~domains ~dst ~off ~stride ~check j =
  let k = sc.pass_die.(j) and r = sc.pass_raise.(j) in
  let low = sc.lows.(k) and high = sc.highs.(k) in
  let mono = ref true in
  for i = 0 to c.n_cells - 1 do
    let h = high.(i) and l = low.(i) in
    if check && not (h <= l) then mono := false;
    dst.(off + (i * stride)) <- (if domains.(i) <= r then h else l)
  done;
  if check then sc.mono.(k) <- !mono

let settle c sc ~domains ~n_islands =
  for k = 0 to sc.dies - 1 do
    let v = sc.detects.(k).violating in
    sc.raised.(k) <- min v n_islands;
    sc.meets.(k) <- false;
    sc.todo.(k) <- (if v > 0 then todo_raise else 0)
  done;
  let first = ref true and lanes = ref (gather sc) in
  while !lanes > 0 do
    let lanes_n = !lanes and check = !first in
    let ws =
      if lanes_n = 1 then begin
        let delays =
          if sc.pass_raise.(0) = all_high then sc.highs.(sc.pass_die.(0))
          else begin
            fill c sc ~domains ~dst:sc.block ~off:0 ~stride:1 ~check 0;
            sc.block
          end
        in
        Sta.analyze_into c.sta sc.ws ~delays;
        sc.ws
      end
      else begin
        for j = 0 to lanes_n - 1 do
          fill c sc ~domains ~dst:sc.block ~off:j ~stride:batch_lanes ~check j
        done;
        Sta.analyze_into ~lanes:lanes_n c.sta sc.lanes_ws ~delays:sc.block;
        sc.lanes_ws
      end
    in
    Metrics.add m_settle_lanes lanes_n;
    for j = 0 to lanes_n - 1 do
      let k = sc.pass_die.(j) and r = sc.pass_raise.(j) in
      let ok = violating_in ws j c.clock = 0 in
      if check && not sc.mono.(k) then sc.todo.(k) <- sc.todo.(k) lor todo_high;
      if r = all_high then sc.high_meets.(k) <- ok
      else if ok then begin
        sc.meets.(k) <- true;
        if sc.mono.(k) then sc.high_meets.(k) <- true
      end
      else if r < n_islands then begin
        sc.raised.(k) <- r + 1;
        sc.todo.(k) <- sc.todo.(k) lor todo_raise
      end
      else if sc.mono.(k) then sc.todo.(k) <- sc.todo.(k) lor todo_high
    done;
    first := false;
    lanes := gather sc
  done;
  sc.settled <- sc.batch;
  sc.settled_on <- domains

let voltage_islands (t : Flow.t) c (v : Flow.variant) =
  let part = v.Flow.slicing.Slicing.partition in
  let domains =
    once_per_graph c.sta
      (fun g -> List.assq_opt part g.domains)
      (fun () -> Island.domains part c.placement)
      (fun g d -> g.domains <- (part, d) :: g.domains)
  in
  let n_islands = Array.length part.Island.islands in
  (* Power per compensation level, computed once (chip leakage varies
     with position but the dominant switching term does not). *)
  let power_of_raised =
    Array.init (n_islands + 1) (fun raised ->
        Flow.power_mw t ~position:Position.point_b
          (Flow.Islands (v.Flow.direction, raised)))
  in
  let ls_area = v.Flow.shifted.Level_shifter.ls_area in
  {
    name = "vi";
    title = "voltage islands";
    knob_units = "islands";
    static_area_um2 = ls_area;
    max_knob = n_islands;
    fresh_apply =
      (fun () sc (d : detect) ->
        (* The sensors report the scenario; the controller raises that
           many islands, then — because Razor keeps monitoring in situ —
           keeps raising one more while violations persist (closed-loop
           post-silicon testing).  The batch's first apply settles all
           its failing dies; the others read their lane. *)
        let raised, meets =
          if d.violating = 0 then (0, true)
          else if n_islands = 0 then (0, false)
          else begin
            if sc.settled <> sc.batch || sc.settled_on != domains then
              settle c sc ~domains ~n_islands;
            (sc.raised.(sc.lane), sc.meets.(sc.lane))
          end
        in
        if raised > 0 then Metrics.incr m_vi_applied;
        Metrics.add m_raised raised;
        {
          meets;
          knob = raised;
          power_mw = power_of_raised.(raised);
          area_um2 = (if raised > 0 then ls_area else 0.0);
        });
  }

(* ------------------------------------------------------------------ *)
(* Strategy 2: traditional chip-wide adaptation                         *)

(* Everything to 1.2V whenever anything fails.  [knob] = 1 iff the die
   needed the raise.  On a die the island strategy already settled on
   this scratch it reads the settle's all-high verdict; otherwise it
   runs one 1-lane pass over the high-supply vector. *)
let chip_wide c =
  {
    name = "chipwide";
    title = "chip-wide 1.2V";
    knob_units = "raises";
    static_area_um2 = 0.0;
    max_knob = 1;
    fresh_apply =
      (fun () sc (d : detect) ->
        if d.violating = 0 then
          (* Raising the supply only speeds cells up, so a die passing
             at 1.0V passes at 1.2V; skip the analysis and leave it at
             the low supply. *)
          { meets = true; knob = 0; power_mw = c.power_baseline;
            area_um2 = 0.0 }
        else begin
          let meets =
            if sc.settled = sc.batch then sc.high_meets.(sc.lane)
            else begin
              Sta.analyze_into c.sta sc.ws ~delays:sc.high_delays;
              violating_in sc.ws 0 c.clock = 0
            end
          in
          Metrics.incr m_chipwide_applied;
          { meets; knob = 1; power_mw = c.power_chip_wide; area_um2 = 0.0 }
        end);
  }

(* The paper's two reference strategies on one detect context. *)
type kernel = { ctx : ctx; vi : strategy; cw : strategy }

let kernel (t : Flow.t) (v : Flow.variant) =
  let ctx = context t in
  { ctx; vi = voltage_islands t ctx v; cw = chip_wide ctx }

(* ------------------------------------------------------------------ *)
(* Strategy 3: post-silicon clock-skew tuning                           *)

(* The tuning elements live in a real clock tree: synthesize it over
   the placed flops once per timing graph, and keep its insertion-delay
   offsets as the untuned skew row every die starts from.  Also kept:
   per capture flop, the latest offset among the flops in its D pin's
   fan-in cone (0 for a cone of primary inputs only), which bounds how
   late the untuned clock can launch its data. *)
let skew_base c =
  once_per_graph c.sta
    (fun g -> g.skew_base)
    (fun () ->
      let nl = Sta.netlist c.sta in
      let flops = Sta.flop_ids c.sta in
      let offs = (Clock_tree.synthesize c.placement ~flops).Clock_tree.offsets in
      let slot = Hashtbl.create (Array.length flops) in
      Array.iteri (fun k cid -> Hashtbl.replace slot cid k) flops;
      let reach = Array.make (Netlist.net_count nl) 0.0 in
      Array.iter
        (fun cid -> reach.(nl.Netlist.cells.(cid).Netlist.fanout) <- offs.(cid))
        flops;
      Array.iter
        (fun cid ->
          let cell = nl.Netlist.cells.(cid) in
          reach.(cell.Netlist.fanout) <-
            Array.fold_left
              (fun acc nid -> Float.max acc reach.(nid))
              0.0 cell.Netlist.fanins)
        (Sta.comb_order c.sta);
      {
        row0 = Array.map (fun cid -> offs.(cid) +. 0.0) flops;
        cap_slot = Array.map (Hashtbl.find slot) c.caps;
        cap_off = Array.map (fun cid -> offs.(cid)) c.caps;
        cap_reach =
          Array.map (fun cid -> reach.(nl.Netlist.cells.(cid).Netlist.fanins.(0))) c.caps;
      })
    (fun g b -> g.skew_base <- Some b)

(* The first pass's guess at the failing stages of the untuned die: a
   stage fails if one of its capture flops would, with every launch at
   the latest offset of its cone and the capture at its own offset,
   read off the zero-skew endpoint delays [detect] kept.  A superset,
   up to rounding, of the stages that fail (skew shifts a path by its
   own launch offset, 0 from a primary input).  On the full design's
   seed-7 compare grid it is the exact set for 40 of 44 failing dies,
   [detect]'s own failing set for 24: the clock tree often breaks
   another stage. *)
let first_guess c sc b =
  let n_caps = Array.length c.caps in
  let arrival = sc.arrivals and off = sc.lane * n_caps in
  let mask = ref 0 in
  for i = 0 to Array.length c.cap_bounds - 2 do
    let worst = ref neg_infinity in
    for j = c.cap_bounds.(i) to c.cap_bounds.(i + 1) - 1 do
      let e = arrival.(off + j) -. b.cap_off.(j) +. b.cap_reach.(j) in
      if e > !worst then worst := e
    done;
    if !worst > c.clock +. 1e-12 then mask := !mask lor (1 lsl i)
  done;
  !mask

(* Tune lane [dst] := lane [src] one step on: the capture flops of every
   stage in [mask] delayed by [step], each unless that passes
   [max_tune].  Whether any moved. *)
let advance c tunes ~step ~max_tune ~src ~dst mask =
  let n_caps = Array.length c.caps in
  let so = src * n_caps and d = dst * n_caps in
  if src <> dst then Array.blit tunes so tunes d n_caps;
  let moved = ref false in
  for i = 0 to Array.length c.cap_bounds - 2 do
    if mask land (1 lsl i) <> 0 then
      for j = d + c.cap_bounds.(i) to d + c.cap_bounds.(i + 1) - 1 do
        let t = tunes.(j) in
        if t +. step <= max_tune +. 1e-12 then begin
          tunes.(j) <- t +. step;
          moved := true
        end
      done
  done;
  !moved

(* One failing die's skew settle, the sequential rule of the
   compensation oracle read off speculative lanes.  Like the island
   controller's settle: while an analyzed stage fails, delay its capture
   flops one step — relaxing that stage's endpoints while loading the
   next stage's launches (the borrowing physics of Sta's skew handling)
   — and re-verify, stopping on success, knob saturation or the
   iteration cap.  A pass prices four tune states of the die at the low
   supply, each lane with its own skew row over a block holding the
   low-supply vector in every lane (filled once per die): lane 0 the
   current state, lanes 1-3 the states reached if the failing set stays
   [guess], the set of the latest step, for 1-3 more steps.  The walk
   reads lane after lane while the failing set is [guess] and the step
   moved; the first lane whose set differs
   (bit-identical to the sequential state, since every lane before it
   stepped by its own failing set) seeds the next pass, one step on.
   Returns the verdict and the lane holding the final tune. *)
let skew_settle c sc b ~step ~max_tune ~max_iters =
  let n_caps = Array.length c.caps in
  let ws = sc.lanes_ws and tunes = sc.tunes and block = sc.block in
  let low = sc.low_delays in
  (* Unsafe accesses are sound: [low] has a delay per cell and [block]
     [batch_lanes] per cell, both made by [scratch]. *)
  for i = 0 to c.n_cells - 1 do
    let v = Array.unsafe_get low i and row = i * batch_lanes in
    for k = 0 to batch_lanes - 1 do
      Array.unsafe_set block (row + k) v
    done
  done;
  Array.fill tunes 0 n_caps 0.0;
  let rec pass iters guess =
    let moved = ref 0 in
    for k = 1 to batch_lanes - 1 do
      if advance c tunes ~step ~max_tune ~src:(k - 1) ~dst:k guess then
        moved := !moved lor (1 lsl k)
    done;
    for k = 0 to batch_lanes - 1 do
      let row = Sta.skew_row ws k and o = k * n_caps in
      Array.blit b.row0 0 row 0 (Array.length row);
      for j = 0 to n_caps - 1 do
        row.(b.cap_slot.(j)) <- b.cap_off.(j) +. tunes.(o + j)
      done
    done;
    Sta.analyze_into c.sta ws ~delays:block;
    Metrics.incr m_skew_passes;
    walk iters guess !moved 0
  and walk iters guess moved k =
    let mask = failing_mask ws k c.clock in
    if mask = 0 then (true, k)
    else if iters <= 0 then (false, k)
    else if mask = guess && k + 1 < batch_lanes then
      if moved land (1 lsl (k + 1)) <> 0 then walk (iters - 1) guess moved (k + 1)
      else (false, k)
    else if advance c tunes ~step ~max_tune ~src:k ~dst:0 mask then
      pass (iters - 1) mask
    else (false, k)
  in
  let result = pass max_iters (first_guess c sc b) in
  (* [detect] and the island settle time this workspace under an ideal
     clock. *)
  for k = 0 to batch_lanes - 1 do
    let row = Sta.skew_row ws k in
    Array.fill row 0 (Array.length row) 0.0
  done;
  result

let skew_tuning ?(range_frac = 0.10) ?(steps = 4) c =
  let lib = (Sta.netlist c.sta).Netlist.lib in
  let b = skew_base c in
  let n_caps = Array.length c.caps in
  let element = Cell.find lib Kind.Buf Cell.X1 in
  (* Tuning elements sit on the clock: one output toggle per cycle. *)
  let unit_power = element_power_mw lib element ~clock:c.clock ~toggle_rate:1.0 in
  let unit_area = element.Cell.area in
  let max_tune = range_frac *. c.clock in
  let step = max_tune /. float_of_int steps in
  let max_iters = steps * List.length analyzed in
  let apply sc (d : detect) =
    if d.violating = 0 then
      { meets = true; knob = 0; power_mw = c.power_baseline; area_um2 = 0.0 }
    else begin
      let meets, lane = skew_settle c sc b ~step ~max_tune ~max_iters in
      let knob = ref 0 in
      for j = lane * n_caps to ((lane + 1) * n_caps) - 1 do
        if sc.tunes.(j) > 0.0 then incr knob
      done;
      let knob = !knob in
      if knob > 0 then Metrics.incr m_skew_applied;
      Metrics.add m_skew_flops knob;
      {
        meets;
        knob;
        power_mw = c.power_baseline +. (float_of_int knob *. unit_power);
        area_um2 = float_of_int knob *. unit_area;
      }
    end
  in
  {
    name = "skew";
    title = "clock-skew tuning";
    knob_units = "flops";
    static_area_um2 = float_of_int n_caps *. unit_area;
    max_knob = n_caps;
    fresh_apply = (fun () -> apply);
  }

(* ------------------------------------------------------------------ *)
(* Strategy 4: post-silicon tunable buffers                             *)

(* Buffer sites per analyzed stage, trim stages per site, and each
   trim's delay as a fraction of the clock. *)
let sites_per_stage = 8
let max_per_site = 4
let trim_frac = 0.02

(* Design-time site selection on the worst NOMINAL low-supply paths,
   once per timing graph: the library is characterised at (vdd_low,
   nominal Lgate), so the STA's base delay vector IS the nominal
   low-supply corner. *)
let nominal_sites c =
  once_per_graph c.sta
    (fun g -> g.sites)
    (fun () ->
      let nominal = Sta.analyze c.sta ~delays:c.base in
      List.concat_map
        (fun s ->
          List.map fst
            (Paths.worst_endpoints ~stage:s c.sta nominal ~k:sites_per_stage))
        analyzed)
    (fun g sites -> g.sites <- Some sites)

(* EffiTest-style post-silicon tunable buffers (arXiv:1705.04992):
   delay-trim stages inserted at design time on the worst low-supply
   paths.  Sites are the 8 worst nominal low-supply endpoints of each
   analyzed stage ([Paths.worst_endpoints]); each site carries 4 trim
   stages of 2% of the clock each.  Per die, a greedy loop enables one
   trim at a time on the binding endpoint of a failing stage until
   every stage meets or the binding endpoint has no (more) trims — the
   die's reported power/area cost is monotone in the buffers enabled.
   It runs no STA pass: it reads the endpoint delays [detect] kept for
   the selected lane.  [knob] = trim stages enabled.  The sites (one
   nominal pass) are chosen once per timing graph. *)
let tunable_buffers c =
  let lib = (Sta.netlist c.sta).Netlist.lib in
  let n_caps = Array.length c.caps in
  let cap_of = Hashtbl.create n_caps in
  Array.iteri (fun j cid -> Hashtbl.replace cap_of cid j) c.caps;
  (* Each site as its cap index: a site is a worst endpoint of an
     analyzed stage, so it is one of that stage's caps. *)
  let sites =
    Array.of_list (List.map (Hashtbl.find cap_of) (nominal_sites c))
  in
  let site_cap = Array.make n_caps 0 in
  Array.iter (fun j -> site_cap.(j) <- max_per_site) sites;
  let n_sites = Array.length sites in
  let n_stages = Array.length c.cap_bounds - 1 in
  let buffer = Cell.find lib Kind.Buf Cell.X4 in
  (* Data-path buffers: toggle at a typical signal activity. *)
  let unit_power = element_power_mw lib buffer ~clock:c.clock ~toggle_rate:0.2 in
  let unit_area = buffer.Cell.area in
  let trim = trim_frac *. c.clock in
  let max_knob = n_sites * max_per_site in
  let apply sc (d : detect) =
    if d.violating = 0 then
      { meets = true; knob = 0; power_mw = c.power_baseline; area_um2 = 0.0 }
    else begin
      let trims = sc.trims in
      for i = 0 to n_sites - 1 do
        trims.(sites.(i)) <- 0
      done;
      (* The die's endpoint delays at the low supply, kept by [detect]
         from its own pass; each trim stage then shaves [trim] ns off its
         endpoint's path, so the greedy loop below is pure arithmetic:
         enable one trim at a time on the binding endpoint of the first
         failing stage until every stage meets or the binding endpoint
         is out of (configured or remaining) trims.  The effective
         delay [arrival - trims * trim] is written out at each use so no
         float is boxed. *)
      let arrival = sc.arrivals and off = sc.lane * n_caps in
      (* Stage [i]'s latest endpoint as a cap index, -1 if it has none. *)
      let binding i =
        let wc = ref (-1) and wd = ref neg_infinity in
        for j = c.cap_bounds.(i) to c.cap_bounds.(i + 1) - 1 do
          let dd = arrival.(off + j) -. (float_of_int trims.(j) *. trim) in
          if dd > !wd then begin
            wc := j;
            wd := dd
          end
        done;
        !wc
      in
      (* The first failing stage's binding endpoint, -1 if every stage
         meets. *)
      let rec failing i =
        if i >= n_stages then -1
        else
          let j = binding i in
          if
            j >= 0
            && arrival.(off + j) -. (float_of_int trims.(j) *. trim)
               > c.clock +. 1e-12
          then j
          else failing (i + 1)
      in
      let rec settle () =
        let j = failing 0 in
        if j < 0 then true
        else if trims.(j) < site_cap.(j) then begin
          trims.(j) <- trims.(j) + 1;
          settle ()
        end
        else false (* binding endpoint is not a tunable site *)
      in
      let meets = settle () in
      let knob = ref 0 in
      for i = 0 to n_sites - 1 do
        knob := !knob + trims.(sites.(i))
      done;
      let knob = !knob in
      if knob > 0 then Metrics.incr m_buffers_applied;
      Metrics.add m_buffers_inserted knob;
      {
        meets;
        knob;
        power_mw = c.power_baseline +. (float_of_int knob *. unit_power);
        area_um2 = float_of_int knob *. unit_area;
      }
    end
  in
  {
    name = "buffers";
    title = "tunable buffers";
    knob_units = "buffers";
    static_area_um2 = float_of_int max_knob *. unit_area;
    max_knob;
    fresh_apply = (fun () -> apply);
  }

(* ------------------------------------------------------------------ *)
(* Strategy selection                                                   *)

type choice = Vi | Chipwide | Skew | Buffers

let all_choices = [ Vi; Chipwide; Skew; Buffers ]

let choice_name = function
  | Vi -> "vi"
  | Chipwide -> "chipwide"
  | Skew -> "skew"
  | Buffers -> "buffers"

let choice_of_name = function
  | "vi" -> Some Vi
  | "chipwide" -> Some Chipwide
  | "skew" -> Some Skew
  | "buffers" -> Some Buffers
  | _ -> None

let choices_label cs = String.concat "," (List.map choice_name cs)

let build t c v = function
  | Vi -> voltage_islands t c v
  | Chipwide -> chip_wide c
  | Skew -> skew_tuning c
  | Buffers -> tunable_buffers c
