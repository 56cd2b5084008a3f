(* Wafer-scale yield engine: the per-die detect-and-compensate loop of
   [Compensation], swept over a 2D grid of die positions on the exposure
   field (optionally replicated over several exposure fields), batched
   on the shared domain pool and reduced with streaming statistics so
   the sweep's memory is O(grid), not O(dies). *)
module Pool = Pvtol_util.Pool
module Srng = Pvtol_util.Srng
module Stats = Pvtol_util.Stats
module Stream_stats = Pvtol_util.Stream_stats
module Welford = Stream_stats.Welford
module P2 = Stream_stats.P2
module Counter = Stream_stats.Counter
module Position = Pvtol_variation.Position
module Sampler = Pvtol_variation.Sampler
module Metrics = Pvtol_util.Metrics
module Smart_sampling = Pvtol_ssta.Smart_sampling
module Scenario = Pvtol_ssta.Scenario
module Json = Pvtol_util.Json

let m_cells = Metrics.counter "wafer_cells_total"
let m_wafer_dies = Metrics.counter "wafer_dies_total"
let m_sampling_dies = Metrics.counter "wafer_sampling_dies_total"

type config = {
  nx : int;
  ny : int;
  dies_per_cell : int;
  fields : int;
  seed : int;
}

let default_config = { nx = 8; ny = 8; dies_per_cell = 12; fields = 1; seed = 7 }

type cell = {
  ix : int;
  iy : int;
  x_frac : float;
  y_frac : float;
  dies : int;
  yield_uncompensated : float;
  yield_compensated : float;
  yield_chip_wide : float;
  mean_raised : float;
  scenario_counts : int array;
  raised_counts : int array;
  mean_power_islands_mw : float;
  mean_power_chip_wide_mw : float;
  delay : Stats.summary;
  delay_p50_ns : float;
  delay_p90_ns : float;
}

type sweep = {
  config : config;
  direction : Island.direction;
  n_islands : int;
  clock_ns : float;
  cells : cell array;
  dies : int;
  yield_uncompensated : float;
  yield_compensated : float;
  yield_chip_wide : float;
  mean_raised : float;
  scenario_counts : int array;
  mean_power_islands_mw : float;
  mean_power_chip_wide_mw : float;
  delay : Stats.summary;
}

(* ------------------------------------------------------------------ *)
(* Grid geometry and per-cell seeding                                   *)

let grid_frac n i =
  if n <= 1 then 0.5 else float_of_int i /. float_of_int (n - 1)

let cell_position cfg ~ix ~iy =
  Position.at_xy ~x_frac:(grid_frac cfg.nx ix) ~y_frac:(grid_frac cfg.ny iy)

(* Every cell's RNG stream depends only on (seed, field, ix, iy), never
   on traversal order or domain count. *)
let cell_seed cfg ~field ~ix ~iy = Srng.substream_seed cfg.seed [ field; iy; ix ]

type site = {
  position : Position.t;
  streams : Srng.t array;
  dies_per_stream : int;
}

let grid_sites ~who cfg =
  if cfg.nx <= 0 || cfg.ny <= 0 || cfg.dies_per_cell <= 0 || cfg.fields <= 0
  then invalid_arg (who ^ ": grid, dies and fields must be positive");
  Array.init (cfg.nx * cfg.ny) (fun c ->
      let ix = c mod cfg.nx and iy = c / cfg.nx in
      {
        position = cell_position cfg ~ix ~iy;
        streams =
          Array.init cfg.fields (fun field ->
              Srng.create (cell_seed cfg ~field ~ix ~iy));
        dies_per_stream = cfg.dies_per_cell;
      })

(* ------------------------------------------------------------------ *)
(* The die sweep: one streaming tally per site                         *)

type strategy_tally = {
  mutable meets : int;
  mutable knob_sum : int;
  power : Welford.t;
  knob : Welford.t;
  area : Welford.t;
  knobs : Counter.t;
}

type tally = {
  mutable n_dies : int;
  mutable n_uncompensated : int;
  delay_ns : Welford.t;
  delay_p50 : P2.t;
  delay_p90 : P2.t;
  violating : Counter.t;
  strategies : strategy_tally array;
}

let tally_create (strategies : Compensation.strategy array) =
  {
    n_dies = 0;
    n_uncompensated = 0;
    delay_ns = Welford.create ();
    delay_p50 = P2.create 0.5;
    delay_p90 = P2.create 0.9;
    violating = Counter.create (List.length Scenario.analyzed_stages + 1);
    strategies =
      Array.map
        (fun (s : Compensation.strategy) ->
          {
            meets = 0;
            knob_sum = 0;
            power = Welford.create ();
            knob = Welford.create ();
            area = Welford.create ();
            knobs = Counter.create (s.Compensation.max_knob + 1);
          })
        strategies;
  }

let tally_outcome st (o : Compensation.outcome) =
  if o.Compensation.meets then st.meets <- st.meets + 1;
  st.knob_sum <- st.knob_sum + o.Compensation.knob;
  Welford.add st.power o.Compensation.power_mw;
  Welford.add st.knob (float_of_int o.Compensation.knob);
  Welford.add st.area o.Compensation.area_um2;
  Counter.add st.knobs o.Compensation.knob

let tally_verdicts ta (d : Compensation.detect) outcomes =
  ta.n_dies <- ta.n_dies + 1;
  if d.Compensation.violating = 0 then
    ta.n_uncompensated <- ta.n_uncompensated + 1;
  Counter.add ta.violating d.Compensation.violating;
  for i = 0 to Array.length outcomes - 1 do
    tally_outcome ta.strategies.(i) outcomes.(i)
  done

let tally_die ta (d : Compensation.detect) outcomes =
  Welford.add ta.delay_ns d.Compensation.worst_low_ns;
  P2.add ta.delay_p50 d.Compensation.worst_low_ns;
  P2.add ta.delay_p90 d.Compensation.worst_low_ns;
  tally_verdicts ta d outcomes

type on_cell = completed:int -> total:int -> unit

(* [site sc c s]: site [c]'s accumulator, before its first die (may draw
   from [s]'s streams).  [die acc sc k i rng]: the map die [i] of [rng]
   is detected at, as lane [k] of its batch; the map is consumed before
   the next hook runs.  [raw z]: that die's raw gaussians, from its
   [draw].  [record acc k d outcomes]: lane [k]'s detect and outcomes,
   in strategy order.  [reads_delay]: [record] reads the detect's
   [worst_low_ns] value, not only its verdict, so the source's dies
   scale their low supply exactly. *)
type 'acc source = {
  site : Compensation.scratch -> int -> site -> 'acc;
  die : 'acc -> Compensation.scratch -> int -> int -> Srng.t -> float array;
  raw : float array -> unit;
  record : 'acc -> int -> Compensation.detect -> Compensation.outcome array -> unit;
  reads_delay : bool;
}

let site_source ctx strategies ~reads_delay record =
  let map = ref [||] in
  {
    site =
      (fun sc _ site ->
        map := Compensation.systematic_into ctx sc site.position;
        tally_create strategies);
    die = (fun _ _ _ _ _ -> !map);
    raw = ignore;
    record = (fun ta _ d outcomes -> record ta d outcomes);
    reads_delay;
  }

let site_tally ctx strategies =
  site_source ctx strategies ~reads_delay:true tally_die

let site_verdicts ctx strategies =
  site_source ctx strategies ~reads_delay:false tally_verdicts

let no_outcome =
  { Compensation.meets = false; knob = 0; power_mw = 0.0; area_um2 = 0.0 }

(* Chunk bounds over [sites]: each chunk is a run of consecutive sites
   holding at least a batch of dies (the last may hold fewer), so a
   default census chunk is one site and a 2-die-per-cell one two. *)
let chunk_bounds sites =
  let n = Array.length sites in
  let bounds = ref [ 0 ] and c = ref 0 in
  while !c < n do
    let dies = ref 0 in
    while !c < n && !dies < Compensation.batch_lanes do
      let s = sites.(!c) in
      dies := !dies + (Array.length s.streams * s.dies_per_stream);
      incr c
    done;
    bounds := !c :: !bounds
  done;
  Array.of_list (List.rev !bounds)

let tally ?pool ?on_cell ctx strategies source sites =
  let pool = match pool with Some p -> p | None -> Pool.shared () in
  let total_sites = Array.length sites in
  let completed = Atomic.make 0 in
  let bounds = chunk_bounds sites in
  (* A worker reuses its scratch, apply states and source across every
     chunk it picks up.  A chunk's dies run serially in (site, stream,
     die) order, batch by batch: each die's source map and draw, one
     pass for the batch's verdicts, then each die's applies and record.
     A site's accumulator — including the order-sensitive P^2 markers —
     is therefore independent of scheduling. *)
  Compensation.with_scratches ctx @@ fun lease ->
  Pool.parallel_chunks pool ~chunks:(Array.length bounds - 1)
    ~init:(fun ~worker:_ ->
      ( lease (),
        Array.map (fun s -> s.Compensation.fresh_apply ()) strategies,
        Array.make (Array.length strategies) no_outcome,
        source ctx strategies ))
    ~f:(fun (sc, applies, outcomes, src) chunk ->
      let first = bounds.(chunk) and last = bounds.(chunk + 1) in
      let accs = Array.make (last - first) None in
      let lane_site = Array.make Compensation.batch_lanes 0 in
      let m = ref 0 in
      let flush () =
        Compensation.detect_lanes ctx sc !m;
        for k = 0 to !m - 1 do
          let d = Compensation.select sc k in
          for j = 0 to Array.length applies - 1 do
            outcomes.(j) <- applies.(j) sc d
          done;
          src.record (Option.get accs.(lane_site.(k))) k d outcomes
        done;
        m := 0
      in
      for j = 0 to last - first - 1 do
        let site = sites.(first + j) in
        let acc = src.site sc (first + j) site in
        accs.(j) <- Some acc;
        Array.iter
          (fun rng ->
            for i = 0 to site.dies_per_stream - 1 do
              let k = !m in
              let systematic = src.die acc sc k i rng in
              Compensation.draw ctx sc k ~exact_low:src.reads_delay
                ~systematic ~raw:src.raw rng;
              lane_site.(k) <- j;
              m := k + 1;
              if !m = Compensation.batch_lanes then flush ()
            done)
          site.streams
      done;
      if !m > 0 then flush ();
      (* Progress callbacks fire from whichever domain finished the
         chunk, once per site; the count is an Atomic so it is monotone
         across them.  A raising callback would poison the sweep —
         swallow. *)
      (match on_cell with
      | None -> ()
      | Some f ->
        for _ = first to last - 1 do
          let done_ = 1 + Atomic.fetch_and_add completed 1 in
          try f ~completed:done_ ~total:total_sites with _ -> ()
        done);
      Array.map Option.get accs)
  |> Array.to_list |> Array.concat

let tally_total strategies tallies =
  (* Ordered reduction (site order), so totals are bit-identical no
     matter how the chunks were scheduled. *)
  let total = tally_create strategies in
  Array.iter
    (fun ta ->
      total.n_dies <- total.n_dies + ta.n_dies;
      total.n_uncompensated <- total.n_uncompensated + ta.n_uncompensated;
      Welford.merge ~into:total.delay_ns ta.delay_ns;
      Counter.merge ~into:total.violating ta.violating;
      Array.iteri
        (fun i st ->
          let tt = total.strategies.(i) in
          tt.meets <- tt.meets + st.meets;
          tt.knob_sum <- tt.knob_sum + st.knob_sum;
          Welford.merge ~into:tt.power st.power;
          Welford.merge ~into:tt.knob st.knob;
          Welford.merge ~into:tt.area st.area;
          Counter.merge ~into:tt.knobs st.knobs)
        ta.strategies)
    tallies;
  total

(* ------------------------------------------------------------------ *)
(* The census: the sweep's projection onto the paper's two strategies  *)

let run ?pool ?on_cell (t : Flow.t) (v : Flow.variant) cfg =
  let k = Compensation.kernel t v in
  let strategies = [| k.Compensation.vi; k.Compensation.cw |] in
  let tallies =
    tally ?pool ?on_cell k.Compensation.ctx strategies site_tally
      (grid_sites ~who:"Wafer.run" cfg)
  in
  let total = tally_total strategies tallies in
  Metrics.add m_cells (Array.length tallies);
  Metrics.add m_wafer_dies total.n_dies;
  let frac ta n = float_of_int n /. float_of_int ta.n_dies in
  let cell c ta =
    let vi = ta.strategies.(0) and cw = ta.strategies.(1) in
    let ix = c mod cfg.nx and iy = c / cfg.nx in
    {
      ix;
      iy;
      x_frac = grid_frac cfg.nx ix;
      y_frac = grid_frac cfg.ny iy;
      dies = ta.n_dies;
      yield_uncompensated = frac ta ta.n_uncompensated;
      yield_compensated = frac ta vi.meets;
      yield_chip_wide = frac ta cw.meets;
      mean_raised = Welford.mean vi.knob;
      scenario_counts = Counter.to_array ta.violating;
      raised_counts = Counter.to_array vi.knobs;
      mean_power_islands_mw = Welford.mean vi.power;
      mean_power_chip_wide_mw = Welford.mean cw.power;
      delay = Welford.summary ta.delay_ns;
      delay_p50_ns = P2.estimate ta.delay_p50;
      delay_p90_ns = P2.estimate ta.delay_p90;
    }
  in
  let vi = total.strategies.(0) and cw = total.strategies.(1) in
  {
    config = cfg;
    direction = v.Flow.direction;
    n_islands = k.Compensation.vi.Compensation.max_knob;
    clock_ns = Compensation.clock k.Compensation.ctx;
    cells = Array.mapi cell tallies;
    dies = total.n_dies;
    yield_uncompensated = frac total total.n_uncompensated;
    yield_compensated = frac total vi.meets;
    yield_chip_wide = frac total cw.meets;
    mean_raised = Welford.mean vi.knob;
    scenario_counts = Counter.to_array total.violating;
    mean_power_islands_mw = Welford.mean vi.power;
    mean_power_chip_wide_mw = Welford.mean cw.power;
    delay = Welford.summary total.delay_ns;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)

type metric =
  | Yield_uncompensated
  | Yield_compensated
  | Mean_raised

let metric_name = function
  | Yield_uncompensated -> "uncompensated yield"
  | Yield_compensated -> "compensated yield"
  | Mean_raised -> "mean islands raised"

let metric_value m (c : cell) =
  match m with
  | Yield_uncompensated -> c.yield_uncompensated
  | Yield_compensated -> c.yield_compensated
  | Mean_raised -> c.mean_raised

let ramp = " .:-=+*#%@"

let render_map s m =
  let cfg = s.config in
  let values = Array.map (metric_value m) s.cells in
  let lo = Array.fold_left Float.min infinity values in
  let hi = Array.fold_left Float.max neg_infinity values in
  let char_of v =
    let t = if hi > lo then (v -. lo) /. (hi -. lo) else 0.0 in
    let i = int_of_float (t *. float_of_int (String.length ramp - 1)) in
    ramp.[Stdlib.max 0 (Stdlib.min (String.length ramp - 1) i)]
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%s over the %dx%d die grid (%.3g..%.3g, ' '=low '@'=high):\n"
       (metric_name m) cfg.nx cfg.ny lo hi);
  for iy = cfg.ny - 1 downto 0 do
    Buffer.add_string buf (Printf.sprintf "  y=%4.2f |" (grid_frac cfg.ny iy));
    for ix = 0 to cfg.nx - 1 do
      Buffer.add_char buf ' ';
      Buffer.add_char buf (char_of values.((iy * cfg.nx) + ix))
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf "          ";
  for ix = 0 to cfg.nx - 1 do
    Buffer.add_string buf (if ix mod 2 = 0 then " +" else "  ")
  done;
  Buffer.add_string buf "  (x: 0 -> 1, lower-left = slow corner A)\n";
  Buffer.contents buf

let pp fmt s =
  let cfg = s.config in
  Format.fprintf fmt
    "wafer sweep: %dx%d grid x %d dies/cell x %d field(s) = %d dies (%s \
     slicing, clock %.3f ns)@.\
    \  timing yield:  uncompensated %.1f%%   islands %.1f%%   chip-wide %.1f%%@.\
    \  mean islands raised per die: %.2f of %d@.\
    \  mean power: islands %.2f mW vs chip-wide adaptation %.2f mW (%.1f%% \
     saved)@.\
    \  critical delay: mean %.3f ns  sigma %.3f ns  range [%.3f, %.3f] ns@."
    cfg.nx cfg.ny cfg.dies_per_cell cfg.fields s.dies
    (Island.direction_name s.direction)
    s.clock_ns
    (100.0 *. s.yield_uncompensated)
    (100.0 *. s.yield_compensated)
    (100.0 *. s.yield_chip_wide)
    s.mean_raised s.n_islands s.mean_power_islands_mw s.mean_power_chip_wide_mw
    (100.0 *. (1.0 -. (s.mean_power_islands_mw /. s.mean_power_chip_wide_mw)))
    s.delay.Stats.mean s.delay.Stats.stddev s.delay.Stats.min s.delay.Stats.max;
  Format.fprintf fmt "  dies per detected scenario:";
  Array.iteri
    (fun i n -> Format.fprintf fmt "  %d VI: %d" i n)
    s.scenario_counts;
  Format.fprintf fmt "@."

(* ------------------------------------------------------------------ *)
(* JSON export                                                          *)

let config_fields cfg ~direction =
  [ ("grid", Json.Obj [ ("nx", Json.Int cfg.nx); ("ny", Json.Int cfg.ny) ]);
    ("dies_per_cell", Json.Int cfg.dies_per_cell);
    ("fields", Json.Int cfg.fields);
    ("seed", Json.Int cfg.seed);
    ("direction", Json.Str (Island.direction_name direction)) ]

let ints a = Json.List (Array.to_list (Array.map (fun n -> Json.Int n) a))

let to_json s =
  let f x = Json.Float x in
  let cell (c : cell) =
    Json.Obj
      [ ("ix", Json.Int c.ix); ("iy", Json.Int c.iy);
        ("x_frac", f c.x_frac); ("y_frac", f c.y_frac);
        ("dies", Json.Int c.dies);
        ("yield_uncompensated", f c.yield_uncompensated);
        ("yield_compensated", f c.yield_compensated);
        ("yield_chip_wide", f c.yield_chip_wide);
        ("mean_raised", f c.mean_raised);
        ("scenario_counts", ints c.scenario_counts);
        ("raised_counts", ints c.raised_counts);
        ("mean_power_islands_mw", f c.mean_power_islands_mw);
        ("mean_power_chip_wide_mw", f c.mean_power_chip_wide_mw);
        ("delay_mean_ns", f c.delay.Stats.mean);
        ("delay_stddev_ns", f c.delay.Stats.stddev);
        ("delay_p50_ns", f c.delay_p50_ns);
        ("delay_p90_ns", f c.delay_p90_ns) ]
  in
  let wafer =
    Json.Obj
      [ ("dies", Json.Int s.dies);
        ("yield_uncompensated", f s.yield_uncompensated);
        ("yield_compensated", f s.yield_compensated);
        ("yield_chip_wide", f s.yield_chip_wide);
        ("mean_raised", f s.mean_raised);
        ("scenario_counts", ints s.scenario_counts);
        ("mean_power_islands_mw", f s.mean_power_islands_mw);
        ("mean_power_chip_wide_mw", f s.mean_power_chip_wide_mw);
        ( "delay_ns",
          Json.Obj
            [ ("mean", f s.delay.Stats.mean); ("stddev", f s.delay.Stats.stddev);
              ("min", f s.delay.Stats.min); ("max", f s.delay.Stats.max) ] ) ]
  in
  Json.to_string
    (Json.Obj
       (config_fields s.config ~direction:s.direction
       @ [ ("n_islands", Json.Int s.n_islands); ("clock_ns", f s.clock_ns);
           ("wafer", wafer);
           ("cells", Json.List (Array.to_list (Array.map cell s.cells))) ]))

(* ------------------------------------------------------------------ *)
(* Variance-reduced sampling estimator                                  *)

(* The sweep above is a census: a fixed die budget at fixed grid
   positions.  The estimator below answers the converse question — how
   many dies buy a given confidence — by sampling die positions over
   the exposure field (the estimand is the continuous wafer mean, not a
   grid average), reweighting tail-chasing tilted draws, and stopping
   when the designated metric's CI is tight enough. *)

type ci_metric = Ci_yield | Ci_rare

let ci_metric_name = function Ci_yield -> "yield" | Ci_rare -> "rare"

type sampling_config = {
  s_method : Smart_sampling.method_;
  s_strata : int;
  s_dies_per_round : int;
  s_max_rounds : int;
  s_ci_target : float;
  s_ci_metric : ci_metric;
  s_rare : int;
  s_seed : int;
  s_direction : Island.direction;
}

let confidence = 0.95

let default_sampling_config =
  {
    s_method = Smart_sampling.Mc;
    s_strata = 4;
    s_dies_per_round = 16;
    s_max_rounds = 64;
    s_ci_target = 0.001;
    s_ci_metric = Ci_yield;
    s_rare = 2;
    s_seed = 7;
    s_direction = Island.Vertical;
  }

type interval = { mid : float; hw : float }

type sampling_group = {
  sg_ix : int;
  sg_iy : int;
  sg_dies : int;
  sg_components : int;
  sg_yield_uncompensated : float;
  sg_rare : float;
  sg_mean_weight : float;
  sg_effective_samples : float;
}

type sampling_report = {
  sr_config : sampling_config;
  sr_position : Position.t option;
  sr_clock_ns : float;
  sr_rounds : int;
  sr_converged : bool;
  sr_dies : int;
  sr_estimate : float;
  sr_ci_halfwidth : float;
  sr_effective_samples : float;
  sr_yield_uncompensated : interval;
  sr_yield_compensated : interval;
  sr_yield_chip_wide : interval;
  sr_rare : interval;
  sr_groups : sampling_group array;
}

(* A stratum's accumulator: one Welford stream per metric — [0]
   uncompensated yield, [1] compensated yield, [2] chip-wide yield, [3]
   the rare scenario (>= s_rare islands violating before compensation),
   each of w * y for the die's 0/1 indicator y — and [4] of the weight
   w.  An importance-sampling estimate and its variance need nothing
   beyond the transformed values, and the weight stream counts the
   dies. *)
let weight_stream = 4

let designated_metric = function Ci_yield -> 0 | Ci_rare -> 3

let gacc_create () = Array.init (weight_stream + 1) (fun _ -> Welford.create ())

let gacc_dies ga = Welford.count ga.(weight_stream)

(* A zero half-width means every die agreed — for indicator metrics
   that is evidence of sample starvation (a binomial with zero observed
   successes is not certain), not of convergence, so the rule demands a
   strictly positive variance estimate. *)
let ci_reached ~target hw = hw > 0.0 && hw <= target

(* A stratum's round: its index, lhs plan (else empty) and accumulator. *)
type stratum_round = {
  st_g : int;
  st_px : int array;
  st_py : int array;
  st_acc : Welford.t array;
}

let run_sampling ?pool ?on_round (t : Flow.t) ~position scfg =
  if scfg.s_strata <= 0 || scfg.s_dies_per_round <= 0 || scfg.s_max_rounds <= 0
  then invalid_arg "Wafer.estimate: strata, dies and rounds must be positive";
  if not (scfg.s_ci_target > 0.0) then
    invalid_arg "Wafer.estimate: ci target must be positive";
  if scfg.s_rare <= 0 || scfg.s_rare > List.length Scenario.analyzed_stages
  then invalid_arg "Wafer.estimate: rare must be in 1..analyzed stages";
  let k = Compensation.kernel t (Flow.variant t scfg.s_direction) in
  let ctx = k.Compensation.ctx in
  let sampler = Flow.sampler t in
  let sta = Flow.sta t in
  let nl = Flow.netlist t in
  let clock = Compensation.clock ctx in
  let low =
    nl.Pvtol_netlist.Netlist.lib.Pvtol_stdcell.Cell.process
      .Pvtol_stdcell.Process.vdd_low
  in
  let base = Compensation.nominal_delays ctx in
  let pool = match pool with Some p -> p | None -> Pool.shared () in
  (* A fixed site keeps the stratum grid as parallel substreams of one
     position (the pooled estimate), so long runs use the whole pool. *)
  let s = scfg.s_strata in
  let groups = s * s in
  let q = scfg.s_dies_per_round in
  let sf = float_of_int s and qf = float_of_int q in
  let centre g =
    let mid i = (float_of_int i +. 0.5) /. sf in
    Position.at_xy ~x_frac:(mid (g mod s)) ~y_frac:(mid (g / s))
  in
  (* A fixed site's map is one array for the whole run, read by its
     mixture and by every die. *)
  let fixed = Option.map (Compensation.systematic ctx) position in
  (* IS builds one mixture per stratum at its center position; the
     tilt is a z-space object, so the within-stratum position jitter
     does not disturb its exactness.  mc / lhs sample untilted. *)
  let model_of systematic =
    Smart_sampling.make
      (Smart_sampling.tilts ~sampler ~sta ~base ~systematic ~vdd:low ~clock
         ~stages:Scenario.analyzed_stages ~rare:scfg.s_rare ())
  in
  let models =
    match (scfg.s_method, fixed) with
    | Smart_sampling.Is, Some systematic ->
      (* One position, one mixture — shared by every substream. *)
      Array.make groups (model_of systematic)
    | Smart_sampling.Is, None ->
      Pool.parallel_chunks pool ~chunks:groups
        ~init:(fun ~worker:_ -> ())
        ~f:(fun () g -> model_of (Compensation.systematic ctx (centre g)))
    | (Smart_sampling.Mc | Smart_sampling.Lhs), _ ->
      Array.make groups Smart_sampling.plain
  in
  (* The map of die [r] of a stratum, placed on the field by its two
     jitter uniforms.  mc: i.i.d. uniform over the field — the strata are
     only independent substreams of one plain sample; is: uniform inside
     the stratum; lhs: inside the stratum's sub-cell of the round's plan. *)
  let field_map sc st r ux uy =
    let gx = float_of_int (st.st_g mod s) and gy = float_of_int (st.st_g / s) in
    let fx, fy =
      match scfg.s_method with
      | Smart_sampling.Mc -> (ux, uy)
      | Smart_sampling.Is -> ((gx +. ux) /. sf, (gy +. uy) /. sf)
      | Smart_sampling.Lhs ->
        ( (gx +. ((float_of_int st.st_px.(r) +. ux) /. qf)) /. sf,
          (gy +. ((float_of_int st.st_py.(r) +. uy) /. qf)) /. sf )
    in
    Compensation.systematic_into ctx sc (Position.at_xy ~x_frac:fx ~y_frac:fy)
  in
  (* The die source of a round's [tally].  Per-die stream layout is
     fixed per method: lhs prefixes the stratum's round with its two
     axis permutations, is prefixes each die with its component pick,
     and every die consumes two jitter uniforms (also at a fixed site)
     and exactly [n] gaussians.  [die] leaves its lane, mixture and
     component to [raw], which prices the weight [record] reads. *)
  let source _ _ =
    let weight = Array.make Compensation.batch_lanes 1.0 in
    let lane = ref 0 and model = ref Smart_sampling.plain and comp = ref (-1) in
    {
      site =
        (fun _ g site ->
          let st_px, st_py =
            match scfg.s_method with
            | Smart_sampling.Lhs ->
              Smart_sampling.lhs_permutations site.streams.(0) q
            | Smart_sampling.Mc | Smart_sampling.Is -> ([||], [||])
          in
          { st_g = g; st_px; st_py; st_acc = gacc_create () });
      die =
        (fun st sc k r rng ->
          lane := k;
          model := models.(st.st_g);
          comp :=
            (match scfg.s_method with
            | Smart_sampling.Is -> Smart_sampling.pick !model rng
            | Smart_sampling.Mc | Smart_sampling.Lhs -> -1);
          let ux = Srng.uniform rng in
          let uy = Srng.uniform rng in
          let systematic =
            match fixed with Some map -> map | None -> field_map sc st r ux uy
          in
          match Smart_sampling.shift !model ~comp:!comp with
          | Either.Right () -> systematic
          | Either.Left tilt ->
            Compensation.shifted_into ctx sc ~systematic
              ~cells:tilt.Smart_sampling.cells ~dir:tilt.Smart_sampling.dir
              ~theta:tilt.Smart_sampling.theta);
      raw =
        (fun z -> weight.(!lane) <- Smart_sampling.weight !model ~comp:!comp ~z);
      record =
        (fun st k d outcomes ->
          (* w * y is exactly w or 0: weights are finite and positive. *)
          let w = weight.(k) and acc = st.st_acc in
          let vi = outcomes.(0) and cw = outcomes.(1) in
          Welford.add acc.(0) (if d.Compensation.violating = 0 then w else 0.0);
          Welford.add acc.(1) (if vi.Compensation.meets then w else 0.0);
          Welford.add acc.(2) (if cw.Compensation.meets then w else 0.0);
          Welford.add acc.(3) (if d.violating >= scfg.s_rare then w else 0.0);
          Welford.add acc.(weight_stream) w);
      reads_delay = false;
    }
  in
  let strategies = [| k.Compensation.vi; k.Compensation.cw |] in
  let site_at = match position with Some p -> Fun.const p | None -> centre in
  let gaccs = Array.init groups (fun _ -> gacc_create ()) in
  let pi_g = 1.0 /. float_of_int groups in
  let combine m =
    let mid, hw =
      Smart_sampling.combine ~confidence
        (Array.map (fun ga -> (pi_g, ga.(m))) gaccs)
    in
    { mid; hw }
  in
  let rounds = ref 0 and converged = ref false in
  while (not !converged) && !rounds < scfg.s_max_rounds do
    let round = !rounds in
    (* A round is one site per stratum, at its centre (or the fixed
       position), with one stream keyed by (seed, round, gy, gx).  The
       round's accumulators merge in stratum order, so reports are
       bit-identical for every domain count and schedule. *)
    let site g =
      let seed = Srng.substream_seed scfg.s_seed [ round; g / s; g mod s ] in
      { position = site_at g; streams = [| Srng.create seed |]; dies_per_stream = q }
    in
    Array.iter
      (fun st ->
        let ga = gaccs.(st.st_g) in
        Array.iteri (fun m racc -> Welford.merge ~into:ga.(m) racc) st.st_acc;
        Metrics.add m_sampling_dies (gacc_dies st.st_acc))
      (tally ~pool ctx strategies source (Array.init groups site));
    incr rounds;
    let hw = (combine (designated_metric scfg.s_ci_metric)).hw in
    if ci_reached ~target:scfg.s_ci_target hw then converged := true;
    match on_round with
    | None -> ()
    | Some f -> (
      try f ~round:!rounds ~max_rounds:scfg.s_max_rounds ~ci_halfwidth:hw
      with _ -> ())
  done;
  let designated = combine (designated_metric scfg.s_ci_metric) in
  {
    sr_config = scfg;
    sr_position = position;
    sr_clock_ns = clock;
    sr_rounds = !rounds;
    sr_converged = !converged;
    sr_dies = Array.fold_left (fun a ga -> a + gacc_dies ga) 0 gaccs;
    sr_estimate = designated.mid;
    sr_ci_halfwidth = designated.hw;
    sr_effective_samples =
      Array.fold_left
        (fun a ga -> a +. Smart_sampling.effective_samples ga.(weight_stream))
        0.0 gaccs;
    sr_yield_uncompensated = combine 0;
    sr_yield_compensated = combine 1;
    sr_yield_chip_wide = combine 2;
    sr_rare = combine 3;
    sr_groups =
      Array.mapi
        (fun g ga ->
          {
            sg_ix = g mod s;
            sg_iy = g / s;
            sg_dies = gacc_dies ga;
            sg_components = Smart_sampling.n_components models.(g);
            sg_yield_uncompensated = Welford.mean ga.(0);
            sg_rare = Welford.mean ga.(3);
            sg_mean_weight = Welford.mean ga.(weight_stream);
            sg_effective_samples =
              Smart_sampling.effective_samples ga.(weight_stream);
          })
        gaccs;
  }

(* ------------------------------------------------------------------ *)
(* Sampling entry points                                                *)

type on_round = round:int -> max_rounds:int -> ci_halfwidth:float -> unit

let estimate ?pool ?on_round t cfg =
  run_sampling ?pool ?on_round t ~position:None cfg

let estimate_at ?pool t ~position cfg =
  run_sampling ?pool t ~position:(Some position) cfg

(* ------------------------------------------------------------------ *)
(* Sampling report rendering                                            *)

(* An importance-weighted mean of few dies can leave [0, 1]: reports
   clip probability estimates (the raw [interval]s stay as computed). *)
let clip_prob x = if x < 0.0 then 0.0 else if x > 1.0 then 1.0 else x

(* An infinite half-width has no variance estimate behind it: stdout
   says "undefined" where the JSON writes null. *)
let pp_interval fmt { mid; hw } =
  let pct x = 100.0 *. clip_prob x in
  if not (Float.is_finite hw) then
    Format.fprintf fmt "%.4f%% +- undefined" (pct mid)
  else if mid -. hw < 0.0 || mid +. hw > 1.0 then
    Format.fprintf fmt "%.4f%% in [%.4f%%, %.4f%%]" (pct mid) (pct (mid -. hw))
      (pct (mid +. hw))
  else Format.fprintf fmt "%.4f%% +- %.4f%%" (100.0 *. mid) (100.0 *. hw)

let pp_sampling fmt r =
  let c = r.sr_config in
  Format.fprintf fmt
    "%s estimator: %dx%d strata x %d dies/round, %d round(s) of max %d \
     (%s)@.\
    \  target: %s CI half-width <= %.4f%% at %.0f%% confidence@.\
    \  dies: %d  effective samples: %.1f@.\
    \  yield:  uncompensated %a   islands %a   chip-wide %a@.\
    \  P(>=%d islands violating): %a@."
    (Smart_sampling.method_name c.s_method)
    (match r.sr_position with Some _ -> 1 | None -> c.s_strata)
    (match r.sr_position with Some _ -> 1 | None -> c.s_strata)
    c.s_dies_per_round r.sr_rounds c.s_max_rounds
    (if r.sr_converged then "converged" else "round budget exhausted")
    (ci_metric_name c.s_ci_metric)
    (100.0 *. c.s_ci_target)
    (100.0 *. confidence)
    r.sr_dies r.sr_effective_samples pp_interval r.sr_yield_uncompensated
    pp_interval r.sr_yield_compensated pp_interval r.sr_yield_chip_wide
    c.s_rare pp_interval r.sr_rare

let sampling_to_json r =
  let c = r.sr_config in
  let f x = Json.Float x in
  (* A stratum with fewer than two dies has no variance estimate: its
     half-width is infinite, written as null. *)
  let interval { mid; hw } =
    Json.Obj
      [ ("mean", f (clip_prob mid)); ("ci_halfwidth", Json.float_or_null hw) ]
  in
  let group g =
    Json.Obj
      [ ("ix", Json.Int g.sg_ix); ("iy", Json.Int g.sg_iy);
        ("dies", Json.Int g.sg_dies); ("components", Json.Int g.sg_components);
        ("yield_uncompensated", f (clip_prob g.sg_yield_uncompensated));
        ("rare", f (clip_prob g.sg_rare)); ("mean_weight", f g.sg_mean_weight);
        ("effective_samples", f g.sg_effective_samples) ]
  in
  let position =
    match r.sr_position with
    | None -> []
    | Some p ->
      [ ( "position",
          Json.Obj
            [ ("x_frac", f (Position.x_frac p));
              ("y_frac", f (Position.y_frac p)) ] ) ]
  in
  Json.to_string
    (Json.Obj
       ([ ("sampler", Json.Str (Smart_sampling.method_name c.s_method));
          ("strata", Json.Int c.s_strata);
          ("dies_per_round", Json.Int c.s_dies_per_round);
          ("max_rounds", Json.Int c.s_max_rounds);
          ("ci_target", f c.s_ci_target);
          ("ci_metric", Json.Str (ci_metric_name c.s_ci_metric));
          ("rare_scenario", Json.Int c.s_rare);
          ("confidence", f confidence);
          ("seed", Json.Int c.s_seed);
          ("direction", Json.Str (Island.direction_name c.s_direction)) ]
       @ position
       @ [ ("clock_ns", f r.sr_clock_ns); ("rounds", Json.Int r.sr_rounds);
           ("converged", Json.Bool r.sr_converged); ("dies", Json.Int r.sr_dies);
           ("estimate", f (clip_prob r.sr_estimate));
           ("ci_halfwidth", Json.float_or_null r.sr_ci_halfwidth);
           ("effective_samples", f r.sr_effective_samples);
           ("yield_uncompensated", interval r.sr_yield_uncompensated);
           ("yield_compensated", interval r.sr_yield_compensated);
           ("yield_chip_wide", interval r.sr_yield_chip_wide);
           ("rare", interval r.sr_rare);
           ("groups", Json.List (Array.to_list (Array.map group r.sr_groups))) ]))
