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
   one STA pass and keeps their verdicts; [select] makes one of them the
   die the strategies re-time, by pointing [low_delays]/[high_delays] at
   its vectors.  The island settle prices its supply configurations as
   the lanes of one pass over [block], each entry a select between the
   two vectors.  Each batch numbers its lanes' dies from [batch] on,
   [batch_lanes] numbers per batch; [die] names the selected one, and
   [high_die] the one whose all-high verdict [high_meets] holds (-1:
   none), so chip-wide reads the verdict the settle already priced.
   [detect_lanes] also keeps each lane's capture flops' endpoint
   delays, which the skew settle's first guess and the buffer settle
   read for the selected [lane]; the skew settle keeps
   its tune states in [tunes] and prices them on [lanes_ws], whose skew
   rows it sets back to zero, and the buffer settle its trims in
   [trims]. *)
type scratch = {
  ws : Sta.workspace;  (* 1 lane: a lone die's detect, chip-wide's own *)
  lanes_ws : Sta.workspace;  (* [batch_lanes] lanes: a batch's detect, the settles *)
  block : float array;  (* cells x [batch_lanes], cell-major *)
  systematic_buf : float array;  (* [systematic_into]'s map *)
  lgates : float array;
  fit : Sampler.die_fit;  (* [draw]'s per-die fit *)
  lows : float array array;  (* per lane: the die's delays at vdd_low *)
  highs : float array array;  (* per lane: at vdd_high *)
  detects : detect array;  (* per lane: the latest batch's verdicts *)
  arrivals : float array;  (* [batch_lanes] x caps, lane-major: endpoint delays at vdd_low *)
  tunes : float array;  (* [batch_lanes] x caps, lane-major: skew tune states *)
  trims : int array;  (* per cap: buffer trims *)
  mutable low_delays : float array;  (* the selected die's [lows] entry *)
  mutable high_delays : float array;
  mutable lane : int;
  mutable batch : int;
  mutable die : int;
  mutable high_die : int;
  mutable high_meets : bool;
}

type outcome = {
  meets : bool;
  knob : int;
  power_mw : float;
  area_um2 : float;
}

let context (t : Flow.t) =
  let sta = Flow.sta t in
  let power_chip_wide = Flow.power_mw t ~position:Position.point_b Flow.Chip_wide_high in
  let power_baseline = Flow.power_mw t ~position:Position.point_b Flow.Baseline_low in
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
  }

(* Lanes of a detect batch and of a settle block: every flow slicing
   has three islands (the growth targets), so a settle prices at most
   three raises plus the all-high configuration. *)
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
    lgates = Array.make c.n_cells 0.0;
    fit = Sampler.die_fit c.sampler;
    lows;
    highs;
    detects = Array.make batch_lanes { violating = 0; worst_low_ns = 0.0 };
    arrivals = Array.make (batch_lanes * n_caps) 0.0;
    tunes = Array.make (batch_lanes * n_caps) 0.0;
    trims = Array.make n_caps 0;
    low_delays = lows.(0);
    high_delays = highs.(0);
    lane = 0;
    batch = 0;
    die = 0;
    high_die = -1;
    high_meets = false;
  }

(* What a timing graph keeps across ops: the scratches returned by
   finished fan-outs, and the design-time state of the skew and buffer
   strategies (the clock tree's untuned skew, the nominal buffer
   sites), computed by the first build on the graph.
   The graph is an ephemeron key, so all of it goes with its flow. *)
type skew_base = {
  row0 : float array;  (* per flop slot: the untuned skew, offset + 0.0 *)
  cap_slot : int array;  (* per cap: its flop slot *)
  cap_off : float array;  (* per cap: its clock-tree offset *)
  cap_reach : float array;  (* per cap: the latest offset launching into its D pin *)
}

type graph_state = {
  mutable free : scratch list;
  mutable skew_base : skew_base option;
  mutable sites : int list option;
}

let graphs : (Sta.t, graph_state) Ephemeron.K1.Bucket.t =
  Ephemeron.K1.Bucket.make ()

let graph_lock = Mutex.create ()

let graph_state c =
  Mutex.protect graph_lock (fun () ->
      match Ephemeron.K1.Bucket.find graphs c.sta with
      | Some g -> g
      | None ->
        let g = { free = []; skew_base = None; sites = None } in
        Ephemeron.K1.Bucket.add graphs c.sta g;
        g)

(* [find g], else [make ()] kept by [keep g]; [make] runs outside the
   lock, and a racing build's value (the same one) is dropped. *)
let once_per_graph c find make keep =
  let g = graph_state c in
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

let with_scratches c f =
  let g = graph_state c in
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
let power_baseline_mw c = c.power_baseline
let power_chip_wide_mw c = c.power_chip_wide

let systematic c position =
  Sampler.systematic_lgates c.sampler c.placement position

let systematic_into c sc position =
  Sampler.systematic_lgates_into c.sampler c.placement position
    ~out:sc.systematic_buf;
  sc.systematic_buf

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
  sc.batch <- sc.batch + batch_lanes;
  Metrics.add m_dies m

let select sc k =
  sc.low_delays <- sc.lows.(k);
  sc.high_delays <- sc.highs.(k);
  sc.lane <- k;
  sc.die <- sc.batch + k;
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

(* One failing die's island settle, from [r0 >= 1] raised islands: lane
   [r - r0] of one pass holds islands [1..r] at the high supply, for
   [r = r0 .. n_islands], and the last lane the all-high configuration,
   whose verdict is stamped for chip-wide.  The first raise whose lane
   meets wins, else every island with its verdict.  Each lane is
   bit-identical to a 1-lane pass over its own supply configuration. *)
let settle c sc ~domains ~n_islands r0 =
  let lanes = n_islands - r0 + 2 in
  let block = sc.block in
  let low = sc.low_delays and high = sc.high_delays in
  for i = 0 to c.n_cells - 1 do
    let row = i * batch_lanes and dom = domains.(i) in
    for k = 0 to lanes - 2 do
      if dom <= r0 + k then block.(row + k) <- high.(i)
      else block.(row + k) <- low.(i)
    done;
    block.(row + lanes - 1) <- high.(i)
  done;
  let ws = sc.lanes_ws in
  Sta.analyze_into ~lanes c.sta ws ~delays:block;
  Metrics.add m_settle_lanes lanes;
  sc.high_die <- sc.die;
  sc.high_meets <- violating_in ws (lanes - 1) c.clock = 0;
  let rec first r =
    if r >= n_islands then (n_islands, violating_in ws (r - r0) c.clock = 0)
    else if violating_in ws (r - r0) c.clock = 0 then (r, true)
    else first (r + 1)
  in
  first r0

let voltage_islands (t : Flow.t) c (v : Flow.variant) =
  let part = v.Flow.slicing.Slicing.partition in
  let domains = Island.domains part c.placement in
  let n_islands = Array.length part.Island.islands in
  if n_islands + 1 > batch_lanes then
    invalid_arg "Compensation.voltage_islands: more islands than settle lanes";
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
           post-silicon testing).  [settle] reads that sequential rule
           off the lanes of one pass. *)
        let raised, meets =
          if d.violating = 0 then (0, true)
          else if n_islands = 0 then (0, false)
          else settle c sc ~domains ~n_islands (min d.violating n_islands)
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
   this scratch it reads the settle's all-high lane; otherwise it runs
   one 1-lane pass over the high-supply vector. *)
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
            if sc.high_die = sc.die then sc.high_meets
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
  once_per_graph c
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
  once_per_graph c
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
