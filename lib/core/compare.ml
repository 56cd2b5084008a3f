(* Strategy comparison harness: [Wafer.tally]'s die sweep with every
   selected strategy applied to every die, projected onto wafer totals.
   Its row-major reduction keeps reports bit-identical for any domain
   count. *)
module Welford = Pvtol_util.Stream_stats.Welford
module Table = Pvtol_util.Table
module Metrics = Pvtol_util.Metrics
module Json = Pvtol_util.Json

let m_compare_dies = Metrics.counter "compare_dies_total"

type config = {
  nx : int;
  ny : int;
  dies_per_cell : int;
  fields : int;
  seed : int;
  choices : Compensation.choice list;
}

let default_config =
  {
    nx = 8;
    ny = 8;
    dies_per_cell = 12;
    fields = 1;
    seed = 7;
    choices = Compensation.all_choices;
  }

(* The grid geometry and seeding are Wafer's, by construction: convert
   the config and call its helpers, so a die at (field, ix, iy, index)
   sees the same systematic map and the same random draw in both
   sweeps. *)
let wafer_config cfg : Wafer.config =
  {
    Wafer.nx = cfg.nx;
    ny = cfg.ny;
    dies_per_cell = cfg.dies_per_cell;
    fields = cfg.fields;
    seed = cfg.seed;
  }

type strategy_result = {
  name : string;
  title : string;
  knob_units : string;
  yield : float;
  mean_power_mw : float;
  mean_knob : float;
  knob_total : int;
  mean_area_um2 : float;
  static_area_um2 : float;
  max_knob : int;
}

type report = {
  config : config;
  direction : Island.direction;
  clock_ns : float;
  dies : int;
  yield_uncompensated : float;
  power_baseline_mw : float;
  results : strategy_result list;
}

(* ------------------------------------------------------------------ *)
(* The sweep                                                            *)

let rec has_dup = function
  | [] -> false
  | c :: rest -> List.mem c rest || has_dup rest

let run ?pool (t : Flow.t) (v : Flow.variant) cfg =
  if cfg.choices = [] then invalid_arg "Compare.run: no strategies selected";
  if has_dup cfg.choices then
    invalid_arg "Compare.run: duplicate strategy selected";
  let ctx = Compensation.context t in
  let strategies =
    Array.of_list (List.map (Compensation.build t ctx v) cfg.choices)
  in
  let total =
    Wafer.tally_total strategies
      (Wafer.tally ?pool ctx strategies Wafer.site_verdicts
         (Wafer.grid_sites ~who:"Compare.run" (wafer_config cfg)))
  in
  Metrics.add m_compare_dies total.Wafer.n_dies;
  let dies = float_of_int total.Wafer.n_dies in
  let result (s : Compensation.strategy) (st : Wafer.strategy_tally) =
    {
      name = s.Compensation.name;
      title = s.Compensation.title;
      knob_units = s.Compensation.knob_units;
      yield = float_of_int st.Wafer.meets /. dies;
      mean_power_mw = Welford.mean st.Wafer.power;
      mean_knob = Welford.mean st.Wafer.knob;
      knob_total = st.Wafer.knob_sum;
      mean_area_um2 = Welford.mean st.Wafer.area;
      static_area_um2 = s.Compensation.static_area_um2;
      max_knob = s.Compensation.max_knob;
    }
  in
  {
    config = cfg;
    direction = v.Flow.direction;
    clock_ns = Compensation.clock ctx;
    dies = total.Wafer.n_dies;
    yield_uncompensated = float_of_int total.Wafer.n_uncompensated /. dies;
    power_baseline_mw = Compensation.power_baseline_mw ctx;
    results =
      Array.to_list (Array.map2 result strategies total.Wafer.strategies);
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)

let render r =
  let cfg = r.config in
  let tbl =
    Table.create
      ~header:
        [ "strategy"; "yield"; "mean power"; "vs base"; "mean knob";
          "exercised area"; "static area" ]
  in
  Table.add_row tbl
    [ "uncompensated"; Table.pcell r.yield_uncompensated;
      Table.fcell ~decimals:2 r.power_baseline_mw ^ " mW"; "+0.0%"; "-"; "-";
      "-" ];
  Table.add_sep tbl;
  List.iter
    (fun s ->
      Table.add_row tbl
        [
          s.title;
          Table.pcell s.yield;
          Table.fcell ~decimals:2 s.mean_power_mw ^ " mW";
          Printf.sprintf "%+.1f%%"
            (100.0 *. ((s.mean_power_mw /. r.power_baseline_mw) -. 1.0));
          Printf.sprintf "%.2f %s" s.mean_knob s.knob_units;
          Table.fcell ~decimals:1 s.mean_area_um2 ^ " um2";
          Table.fcell ~decimals:1 s.static_area_um2 ^ " um2";
        ])
    r.results;
  Printf.sprintf
    "strategy comparison: %dx%d grid x %d dies/cell x %d field(s) = %d dies \
     (%s slicing, clock %.3f ns)\n%s"
    cfg.nx cfg.ny cfg.dies_per_cell cfg.fields r.dies
    (Island.direction_name r.direction)
    r.clock_ns
    (Table.render tbl)

(* ------------------------------------------------------------------ *)
(* JSON export                                                          *)

let to_json r =
  let f x = Json.Float x in
  let strategy s =
    Json.Obj
      [ ("name", Json.Str s.name); ("title", Json.Str s.title);
        ("yield", f s.yield); ("mean_power_mw", f s.mean_power_mw);
        ("mean_knob", f s.mean_knob); ("knob_total", Json.Int s.knob_total);
        ("knob_units", Json.Str s.knob_units); ("max_knob", Json.Int s.max_knob);
        ("mean_area_um2", f s.mean_area_um2);
        ("static_area_um2", f s.static_area_um2) ]
  in
  Json.to_string
    (Json.Obj
       (Wafer.config_fields (wafer_config r.config) ~direction:r.direction
       @ [ ("clock_ns", f r.clock_ns); ("dies", Json.Int r.dies);
           ("yield_uncompensated", f r.yield_uncompensated);
           ("power_baseline_mw", f r.power_baseline_mw);
           ("strategies", Json.List (List.map strategy r.results)) ]))
