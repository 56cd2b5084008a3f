(* Strategy comparison harness: the shared detect pass of
   [Compensation], fanned out over the same wafer grid as [Wafer] (same
   positions, same per-cell RNG seeds), with every selected strategy
   applied to every die.  Row-major ordered reduction keeps reports
   bit-identical for any domain count. *)
module Stream_stats = Pvtol_util.Stream_stats
module Welford = Stream_stats.Welford
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
  direction : Island.direction;
  choices : Compensation.choice list;
}

let default_config =
  {
    nx = 8;
    ny = 8;
    dies_per_cell = 12;
    fields = 1;
    seed = 7;
    direction = Island.Vertical;
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
    direction = cfg.direction;
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
  clock_ns : float;
  dies : int;
  yield_uncompensated : float;
  power_baseline_mw : float;
  results : strategy_result list;
}

(* ------------------------------------------------------------------ *)
(* Per-cell accumulators (one sub-accumulator per strategy)             *)

type sacc = {
  mutable s_meets : int;
  mutable s_knob : int;
  s_power : Welford.t;
  s_knobs : Welford.t;
  s_area : Welford.t;
}

type acc = {
  mutable a_dies : int;
  mutable a_unc : int;
  a_strats : sacc array;
}

let acc_create n =
  {
    a_dies = 0;
    a_unc = 0;
    a_strats =
      Array.init n (fun _ ->
          {
            s_meets = 0;
            s_knob = 0;
            s_power = Welford.create ();
            s_knobs = Welford.create ();
            s_area = Welford.create ();
          });
  }

let sacc_add sa (o : Compensation.outcome) =
  if o.Compensation.meets then sa.s_meets <- sa.s_meets + 1;
  sa.s_knob <- sa.s_knob + o.Compensation.knob;
  Welford.add sa.s_power o.Compensation.power_mw;
  Welford.add sa.s_knobs (float_of_int o.Compensation.knob);
  Welford.add sa.s_area o.Compensation.area_um2

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
  let n_strats = Array.length strategies in
  (* Each worker carries the shared detect scratch plus one private
     apply state per strategy; every die is detected once, then the
     strategies are applied to it in request order. *)
  let accs =
    Wafer.drive ?pool ~who:"Compare.run" v (wafer_config cfg)
      ~scratch:(fun () ->
        ( Compensation.scratch ctx,
          Array.map (fun s -> s.Compensation.fresh_apply ()) strategies ))
      ~systematic:(fun (sc, _) -> Compensation.systematic_into ctx sc)
      ~acc:(fun () -> acc_create n_strats)
      ~die:(fun (sc, applies) acc ~systematic rng ->
        let d = Compensation.detect ctx sc ~systematic rng in
        acc.a_dies <- acc.a_dies + 1;
        if d.Compensation.violating = 0 then acc.a_unc <- acc.a_unc + 1;
        for i = 0 to n_strats - 1 do
          sacc_add acc.a_strats.(i) (applies.(i) sc d)
        done)
  in
  (* Ordered reduction (row-major): totals are bit-identical no matter
     how the chunks were scheduled. *)
  let total = acc_create n_strats in
  Array.iter
    (fun acc ->
      total.a_dies <- total.a_dies + acc.a_dies;
      total.a_unc <- total.a_unc + acc.a_unc;
      Array.iteri
        (fun i sa ->
          let ta = total.a_strats.(i) in
          ta.s_meets <- ta.s_meets + sa.s_meets;
          ta.s_knob <- ta.s_knob + sa.s_knob;
          Welford.merge ~into:ta.s_power sa.s_power;
          Welford.merge ~into:ta.s_knobs sa.s_knobs;
          Welford.merge ~into:ta.s_area sa.s_area)
        acc.a_strats)
    accs;
  Metrics.add m_compare_dies total.a_dies;
  let dies = float_of_int total.a_dies in
  let results =
    Array.to_list
      (Array.mapi
         (fun i (s : Compensation.strategy) ->
           let sa = total.a_strats.(i) in
           {
             name = s.Compensation.name;
             title = s.Compensation.title;
             knob_units = s.Compensation.knob_units;
             yield = float_of_int sa.s_meets /. dies;
             mean_power_mw = Welford.mean sa.s_power;
             mean_knob = Welford.mean sa.s_knobs;
             knob_total = sa.s_knob;
             mean_area_um2 = Welford.mean sa.s_area;
             static_area_um2 = s.Compensation.static_area_um2;
             max_knob = s.Compensation.max_knob;
           })
         strategies)
  in
  {
    config = cfg;
    clock_ns = Compensation.clock ctx;
    dies = total.a_dies;
    yield_uncompensated = float_of_int total.a_unc /. dies;
    power_baseline_mw = Compensation.power_baseline_mw ctx;
    results;
  }

(* ------------------------------------------------------------------ *)
(* Stage-graph exposure                                                 *)

let config_label cfg =
  Wafer.config_label (wafer_config cfg)
  ^ "-" ^ Compensation.choices_label cfg.choices

let compare_family =
  Flow.keyed_family ~name:"compare"
    ~direction:(fun cfg -> cfg.direction)
    ~key_label:config_label
    (fun (_ : unit option) t v cfg -> run t v cfg)

let compare t cfg = compare_family t None cfg

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
    (Island.direction_name cfg.direction)
    r.clock_ns
    (Table.render tbl)

let pp fmt r = Format.pp_print_string fmt (render r)

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
       (Wafer.config_fields (wafer_config r.config)
       @ [ ("clock_ns", f r.clock_ns); ("dies", Json.Int r.dies);
           ("yield_uncompensated", f r.yield_uncompensated);
           ("power_baseline_mw", f r.power_baseline_mw);
           ("strategies", Json.List (List.map strategy r.results)) ]))
