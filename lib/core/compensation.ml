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
   none), so chip-wide reads the verdict the settle already priced. *)
type scratch = {
  ws : Sta.workspace;  (* 1 lane: a lone die's detect, chip-wide's own *)
  lanes_ws : Sta.workspace;  (* [batch_lanes] lanes: a batch's detect, the settle *)
  block : float array;  (* cells x [batch_lanes], cell-major *)
  systematic_buf : float array;  (* [systematic_into]'s map *)
  lgates : float array;
  lows : float array array;  (* per lane: the die's delays at vdd_low *)
  highs : float array array;  (* per lane: at vdd_high *)
  detects : detect array;  (* per lane: the latest batch's verdicts *)
  mutable low_delays : float array;  (* the selected die's [lows] entry *)
  mutable high_delays : float array;
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
  {
    sampler = Flow.sampler t;
    placement = Flow.placement t;
    sta;
    clock = Flow.clock t;
    base = Sta.nominal_delays sta;
    n_cells = Netlist.cell_count (Flow.netlist t);
    power_chip_wide;
    power_baseline;
  }

(* Lanes of a detect batch and of a settle block: every flow slicing
   has three islands (the growth targets), so a settle prices at most
   three raises plus the all-high configuration. *)
let batch_lanes = 4

let scratch c =
  let lows = Array.init batch_lanes (fun _ -> Array.make c.n_cells 0.0) in
  let highs = Array.init batch_lanes (fun _ -> Array.make c.n_cells 0.0) in
  {
    ws = Sta.workspace c.sta;
    lanes_ws = Sta.workspace ~lanes:batch_lanes c.sta;
    block = Array.make (c.n_cells * batch_lanes) 0.0;
    systematic_buf = Array.make c.n_cells 0.0;
    lgates = Array.make c.n_cells 0.0;
    lows;
    highs;
    detects = Array.make batch_lanes { violating = 0; worst_low_ns = 0.0 };
    low_delays = lows.(0);
    high_delays = highs.(0);
    batch = 0;
    die = 0;
    high_die = -1;
    high_meets = false;
  }

(* Scratches returned by finished fan-outs, one free list per timing
   graph.  The graph is an ephemeron key, so a flow's scratches go with
   it. *)
let free_lists : (Sta.t, scratch list ref) Ephemeron.K1.Bucket.t =
  Ephemeron.K1.Bucket.make ()

let free_lock = Mutex.create ()

let with_scratches c f =
  let free =
    Mutex.protect free_lock (fun () ->
        match Ephemeron.K1.Bucket.find free_lists c.sta with
        | Some l -> l
        | None ->
          let l = ref [] in
          Ephemeron.K1.Bucket.add free_lists c.sta l;
          l)
  in
  let leased = ref [] in
  let lease () =
    let reused =
      Mutex.protect free_lock (fun () ->
          match !free with
          | sc :: rest ->
            free := rest;
            Some sc
          | [] -> None)
    in
    let sc = match reused with Some sc -> sc | None -> scratch c in
    Mutex.protect free_lock (fun () -> leased := sc :: !leased);
    sc
  in
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect free_lock (fun () -> free := List.rev_append !leased !free))
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

(* Analyzed stages failing in lane [k] of a finished pass. *)
let violating_in ws k clock =
  List.fold_left
    (fun acc s ->
      match Sta.ws_stage_delay ws s k with
      | Some d when d > clock +. 1e-12 -> acc + 1
      | Some _ | None -> acc)
    0 analyzed

let draw c sc k ~systematic rng =
  if k < 0 || k >= batch_lanes then
    invalid_arg "Compensation.draw: lane out of range";
  (* One random Lgate realisation for this die; every strategy below
     re-times the same realisation.  The single [sample_lgates] call is
     the die's only RNG consumption, so per-die streams are identical
     for every strategy subset a caller evaluates. *)
  Sampler.sample_lgates c.sampler ~systematic rng sc.lgates;
  Process.supply_delays c.sampler.Sampler.process ~base:c.base
    ~lgates:sc.lgates ~low:sc.lows.(k) ~high:sc.highs.(k)

(* Lane [k]'s verdict, read off a finished pass. *)
let verdict c ws k =
  let worst_low =
    List.fold_left
      (fun acc s ->
        match Sta.ws_stage_delay ws s k with
        | Some d -> Float.max acc d
        | None -> acc)
      0.0 analyzed
  in
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
    sc.detects.(k) <- verdict c ws k
  done;
  sc.batch <- sc.batch + batch_lanes;
  Metrics.add m_dies m

let select sc k =
  sc.low_delays <- sc.lows.(k);
  sc.high_delays <- sc.highs.(k);
  sc.die <- sc.batch + k;
  sc.detects.(k)

let detect c sc ~systematic rng =
  draw c sc 0 ~systematic rng;
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

let skew_tuning ?(range_frac = 0.10) ?(steps = 4) c =
  let nl = Sta.netlist c.sta in
  let lib = nl.Netlist.lib in
  let flops = Sta.flop_ids c.sta in
  (* The tuning elements live in a real clock tree: synthesize it over
     the placed flops and use its insertion-delay offsets as the
     baseline skew every die starts from. *)
  let tree = Clock_tree.synthesize c.placement ~flops in
  let offs = tree.Clock_tree.offsets in
  let stage_caps =
    List.map (fun s -> (s, Sta.stage_endpoint_ids c.sta s)) analyzed
  in
  let all_caps = Array.concat (List.map snd stage_caps) in
  let n_elements = Array.length all_caps in
  let element = Cell.find lib Kind.Buf Cell.X1 in
  (* Tuning elements sit on the clock: one output toggle per cycle. *)
  let unit_power = element_power_mw lib element ~clock:c.clock ~toggle_rate:1.0 in
  let unit_area = element.Cell.area in
  let max_tune = range_frac *. c.clock in
  let step = max_tune /. float_of_int steps in
  let max_iters = steps * List.length analyzed in
  {
    name = "skew";
    title = "clock-skew tuning";
    knob_units = "flops";
    static_area_um2 = float_of_int n_elements *. unit_area;
    max_knob = n_elements;
    fresh_apply =
      (fun () ->
        (* Private workspace: the skew settle rewrites its skew row,
           and the scratch's workspaces time every other strategy under
           an ideal clock. *)
        let ws = Sta.workspace c.sta in
        let skew = Sta.skew_row ws in
        let tune = Array.make c.n_cells 0.0 in
        fun sc (d : detect) ->
          if d.violating = 0 then
            { meets = true; knob = 0; power_mw = c.power_baseline;
              area_um2 = 0.0 }
          else begin
            Array.iter (fun cid -> tune.(cid) <- 0.0) all_caps;
            (* The die stays at the low supply: read the delay vector
               [detect] kept. *)
            let delays = sc.low_delays in
            let failing s =
              match Sta.ws_stage_delay ws s 0 with
              | Some dd -> dd > c.clock +. 1e-12
              | None -> false
            in
            (* Like the island controller's settle: while an analyzed
               stage fails, delay its capture flops one step — relaxing
               that stage's endpoints while loading the next stage's
               launches (the borrowing physics of Sta's skew handling)
               — and re-verify.  Stops on success, knob saturation, or
               the iteration cap (one downstream ripple per step). *)
            let rec settle iters =
              for slot = 0 to Array.length flops - 1 do
                let cid = flops.(slot) in
                skew.(slot) <- offs.(cid) +. tune.(cid)
              done;
              Sta.analyze_into c.sta ws ~delays;
              let bad = List.filter (fun (s, _) -> failing s) stage_caps in
              if bad = [] then true
              else if iters <= 0 then false
              else begin
                let moved = ref false in
                List.iter
                  (fun (_, caps) ->
                    Array.iter
                      (fun cid ->
                        if tune.(cid) +. step <= max_tune +. 1e-12 then begin
                          tune.(cid) <- tune.(cid) +. step;
                          moved := true
                        end)
                      caps)
                  bad;
                if !moved then settle (iters - 1) else false
              end
            in
            let meets = settle max_iters in
            let knob =
              Array.fold_left
                (fun acc cid -> if tune.(cid) > 0.0 then acc + 1 else acc)
                0 all_caps
            in
            if knob > 0 then Metrics.incr m_skew_applied;
            Metrics.add m_skew_flops knob;
            {
              meets;
              knob;
              power_mw = c.power_baseline +. (float_of_int knob *. unit_power);
              area_um2 = float_of_int knob *. unit_area;
            }
          end);
  }

(* ------------------------------------------------------------------ *)
(* Strategy 4: post-silicon tunable buffers                             *)

let tunable_buffers ?(sites_per_stage = 8) ?(max_per_site = 4)
    ?(trim_frac = 0.02) c =
  let nl = Sta.netlist c.sta in
  let lib = nl.Netlist.lib in
  (* Design-time site selection on the worst NOMINAL low-supply paths:
     the library is characterised at (vdd_low, nominal Lgate), so the
     STA's base delay vector IS the nominal low-supply corner. *)
  let nominal = Sta.analyze c.sta ~delays:c.base in
  let sites =
    List.concat_map
      (fun s ->
        List.map fst
          (Paths.worst_endpoints ~stage:s c.sta nominal ~k:sites_per_stage))
      analyzed
  in
  let site_cap = Array.make c.n_cells 0 in
  List.iter (fun cid -> site_cap.(cid) <- max_per_site) sites;
  let n_sites = List.length sites in
  let stage_caps = List.map (Sta.stage_endpoint_ids c.sta) analyzed in
  let buffer = Cell.find lib Kind.Buf Cell.X4 in
  (* Data-path buffers: toggle at a typical signal activity. *)
  let unit_power = element_power_mw lib buffer ~clock:c.clock ~toggle_rate:0.2 in
  let unit_area = buffer.Cell.area in
  let trim = trim_frac *. c.clock in
  let max_knob = n_sites * max_per_site in
  {
    name = "buffers";
    title = "tunable buffers";
    knob_units = "buffers";
    static_area_um2 = float_of_int max_knob *. unit_area;
    max_knob;
    fresh_apply =
      (fun () ->
        let ws = Sta.workspace c.sta in
        let trims = Array.make c.n_cells 0 in
        (* This die's endpoint arrivals, by cell id. *)
        let arrival = Array.make c.n_cells 0.0 in
        fun sc (d : detect) ->
          if d.violating = 0 then
            { meets = true; knob = 0; power_mw = c.power_baseline;
              area_um2 = 0.0 }
          else begin
            List.iter (fun cid -> trims.(cid) <- 0) sites;
            (* One STA pass for this die's endpoint arrivals; each trim
               stage then shaves [trim] ns off its endpoint's path, so
               the greedy loop below is pure arithmetic: enable one trim
               at a time on the binding endpoint of the first failing
               stage until every stage meets or the binding endpoint is
               out of (configured or remaining) trims.  The effective
               delay [arrival - trims * trim] is written out at each use
               so no float is boxed. *)
            Sta.analyze_into c.sta ws ~delays:sc.low_delays;
            List.iter
              (Array.iter (fun cid ->
                   arrival.(cid) <- Sta.ws_endpoint_delay ws cid 0))
              stage_caps;
            (* The stage's latest endpoint, -1 if it has none. *)
            let binding caps =
              let wc = ref (-1) and wd = ref neg_infinity in
              for i = 0 to Array.length caps - 1 do
                let cid = caps.(i) in
                let dd = arrival.(cid) -. (float_of_int trims.(cid) *. trim) in
                if dd > !wd then begin
                  wc := cid;
                  wd := dd
                end
              done;
              !wc
            in
            (* The first failing stage's binding endpoint, -1 if every
               stage meets. *)
            let rec failing = function
              | [] -> -1
              | caps :: rest ->
                let cid = binding caps in
                if
                  cid >= 0
                  && arrival.(cid) -. (float_of_int trims.(cid) *. trim)
                     > c.clock +. 1e-12
                then cid
                else failing rest
            in
            let rec settle () =
              let cid = failing stage_caps in
              if cid < 0 then true
              else if trims.(cid) < site_cap.(cid) then begin
                trims.(cid) <- trims.(cid) + 1;
                settle ()
              end
              else false (* binding endpoint is not a tunable site *)
            in
            let meets = settle () in
            let knob = List.fold_left (fun a cid -> a + trims.(cid)) 0 sites in
            if knob > 0 then Metrics.incr m_buffers_applied;
            Metrics.add m_buffers_inserted knob;
            {
              meets;
              knob;
              power_mw = c.power_baseline +. (float_of_int knob *. unit_power);
              area_um2 = float_of_int knob *. unit_area;
            }
          end);
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
