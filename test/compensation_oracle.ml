(* Sequential-settle oracle of [Compensation]'s per-die kernel.

   The library scales each die at both supplies once, prices the
   island raises and the all-high configuration as the lanes of one STA
   pass, and lets chip-wide read the all-high lane; skew tuning prices
   four speculative tune states per pass of the kept low-supply vector,
   and tunable buffers read the endpoint delays [detect] kept.  This
   oracle is the kernel as it was before all that: every re-timing
   rescales all cells with the scalar [Process.delay_scale] and runs a
   full 1-lane pass, one supply configuration at a time (the island
   settle one raise per pass, chip-wide its own pass), the Lgates come
   from a per-cell [Srng.gaussian] loop, and skew and buffers rescale
   the die at the low supply on their own and run the scalar full pass
   of [Sta_oracle], with skew as a closure, the skew settle one tune
   state per pass.  Both runs must agree on every outcome bit.  The
   oracle also records what the speculation is tested against: the
   first pass's guess at the failing stages, which [detect] derives
   from its endpoint delays, and per skew settle the failing stages of
   each pass and why the settle stopped.

   The strategies' design-time state (island domains, clock tree,
   buffer sites, unit costs) is rebuilt here from public APIs with the
   library's defaults. *)

open Pvtol_netlist
module Flow = Pvtol_core.Flow
module Island = Pvtol_core.Island
module Slicing = Pvtol_core.Slicing
module Level_shifter = Pvtol_core.Level_shifter
module Compensation = Pvtol_core.Compensation
module Sta = Pvtol_timing.Sta
module Clock_tree = Pvtol_timing.Clock_tree
module Paths = Pvtol_timing.Paths
module Sampler = Pvtol_variation.Sampler
module Field = Pvtol_variation.Field
module Position = Pvtol_variation.Position
module Placement = Pvtol_place.Placement
module Power = Pvtol_power.Power
module Cell = Pvtol_stdcell.Cell
module Kind = Pvtol_stdcell.Kind
module Process = Pvtol_stdcell.Process
module Srng = Pvtol_util.Srng

type t = {
  sampler : Sampler.t;
  placement : Placement.t;
  sta : Sta.t;
  clock : float;
  low : float;
  high : float;
  base : float array;
  n : int;
  ws : Sta.workspace;
  lgates : float array;
  delays : float array;
  power_baseline : float;
  power_chip_wide : float;
  (* voltage islands *)
  domains : int array;
  n_islands : int;
  power_of_raised : float array;
  ls_area : float;
  (* skew tuning *)
  skew_ws : Sta_oracle.workspace;
  skew_delays : float array;
  tune : float array;
  offs : float array;
  skew_caps : (Stage.t * int array) list;
  all_caps : int array;
  skew_unit_power : float;
  skew_unit_area : float;
  reach : float array;  (* per cell: the latest offset launching into its D pin *)
  mutable first_guess : int;  (* the latest detect's guess at the untuned failing stages *)
  mutable skew_trace : int list;  (* the latest skew settle's failing stages per pass *)
  mutable skew_end : [ `Meets | `Cap | `Saturated ];
  (* tunable buffers *)
  buf_ws : Sta_oracle.workspace;
  buf_delays : float array;
  trims : int array;
  sites : int list;
  site_cap : int array;
  buf_unit_power : float;
  buf_unit_area : float;
  trim : float;
}

let element_power_mw lib (cell : Cell.t) ~clock ~toggle_rate =
  let process = lib.Cell.process in
  let vdd = process.Process.vdd_low in
  let lgate_nm = process.Process.l_nominal_nm in
  let sw_fj =
    Cell.switching_energy_fj lib cell ~vdd ~load_ff:cell.Cell.input_cap
  in
  (sw_fj *. toggle_rate /. clock *. 1e-3)
  +. (Cell.leakage_nw lib cell ~vdd ~lgate_nm *. 1e-6)

let create (t : Flow.t) (v : Flow.variant) =
  let ctx = Compensation.context t in
  let nl = Flow.netlist t in
  let lib = nl.Netlist.lib in
  let process = lib.Cell.process in
  let sta = Flow.sta t in
  let placement = Flow.placement t in
  let clock = Flow.clock t in
  let base = Sta.nominal_delays sta in
  let n = Netlist.cell_count nl in
  let part = v.Flow.slicing.Slicing.partition in
  let n_islands = Array.length part.Island.islands in
  let stage_caps =
    List.map (fun s -> (s, Sta.stage_endpoint_ids sta s)) Compensation.analyzed
  in
  let skew_el = Cell.find lib Kind.Buf Cell.X1 in
  let buffer = Cell.find lib Kind.Buf Cell.X4 in
  let nominal = Sta.analyze sta ~delays:base in
  let sites =
    List.concat_map
      (fun s -> List.map fst (Paths.worst_endpoints ~stage:s sta nominal ~k:8))
      Compensation.analyzed
  in
  let offs =
    (Clock_tree.synthesize placement ~flops:(Sta.flop_ids sta)).Clock_tree.offsets
  in
  (* The latest clock-tree offset launching into each net, by recursion
     over drivers: a flop launches at its offset, a primary input at 0,
     a gate at the latest of its inputs (0 with none). *)
  let net_reach = Hashtbl.create 1024 in
  let rec reach_of nid =
    match Hashtbl.find_opt net_reach nid with
    | Some r -> r
    | None ->
      let r =
        match nl.Netlist.nets.(nid).Netlist.driver with
        | None -> 0.0
        | Some d ->
          let cell = nl.Netlist.cells.(d) in
          if Kind.is_sequential cell.Netlist.cell.Cell.kind then offs.(d)
          else
            Array.fold_left
              (fun acc nid -> Float.max acc (reach_of nid))
              0.0 cell.Netlist.fanins
      in
      Hashtbl.add net_reach nid r;
      r
  in
  let reach = Array.make n 0.0 in
  List.iter
    (fun (_, caps) ->
      Array.iter
        (fun cid -> reach.(cid) <- reach_of nl.Netlist.cells.(cid).Netlist.fanins.(0))
        caps)
    stage_caps;
  let site_cap = Array.make n 0 in
  List.iter (fun cid -> site_cap.(cid) <- 4) sites;
  {
    sampler = Flow.sampler t;
    placement;
    sta;
    clock;
    low = process.Process.vdd_low;
    high = process.Process.vdd_high;
    base;
    n;
    ws = Sta.workspace sta;
    lgates = Array.make n 0.0;
    delays = Array.make n 0.0;
    power_baseline = Compensation.power_baseline_mw ctx;
    power_chip_wide = Compensation.power_chip_wide_mw ctx;
    domains = Island.domains part placement;
    n_islands;
    power_of_raised =
      Array.init (n_islands + 1) (fun raised ->
          Power.total_mw
            (Flow.power_at t ~position:Position.point_b
               (Flow.Islands (v.Flow.direction, raised)))
              .Power.total);
    ls_area = v.Flow.shifted.Level_shifter.ls_area;
    skew_ws = Sta_oracle.workspace sta;
    skew_delays = Array.make n 0.0;
    tune = Array.make n 0.0;
    offs;
    skew_caps = stage_caps;
    all_caps = Array.concat (List.map snd stage_caps);
    skew_unit_power = element_power_mw lib skew_el ~clock ~toggle_rate:1.0;
    skew_unit_area = skew_el.Cell.area;
    reach;
    first_guess = 0;
    skew_trace = [];
    skew_end = `Meets;
    buf_ws = Sta_oracle.workspace sta;
    buf_delays = Array.make n 0.0;
    trims = Array.make n 0;
    sites;
    site_cap;
    buf_unit_power = element_power_mw lib buffer ~clock ~toggle_rate:0.2;
    buf_unit_area = buffer.Cell.area;
    trim = 0.02 *. clock;
  }

(* The map as [Position.to_field] + [Field.systematic_nm] per cell. *)
let systematic o position =
  Array.init o.n (fun i ->
      let x_mm, y_mm =
        Position.to_field position ~x_um:o.placement.Placement.xs.(i)
          ~y_um:o.placement.Placement.ys.(i)
      in
      Field.systematic_nm o.sampler.Sampler.field ~x_mm ~y_mm)

let scale_all o ~vdd out =
  for i = 0 to o.n - 1 do
    out.(i) <-
      o.base.(i)
      *. Process.delay_scale o.sampler.Sampler.process ~vdd:(vdd i)
           ~lgate_nm:o.lgates.(i)
  done

let analyze_full o ~vdd =
  scale_all o ~vdd o.delays;
  Sta.analyze_into o.sta o.ws ~delays:o.delays

(* The analyzed stages failing: bit [i] is stage [i]. *)
let failing_mask o stage_delay =
  List.fold_left
    (fun (i, m) s ->
      match stage_delay s with
      | Some d when d > o.clock +. 1e-12 -> (i + 1, m lor (1 lsl i))
      | Some _ | None -> (i + 1, m))
    (0, 0) Compensation.analyzed
  |> snd

let count_violating o ws =
  List.length
    (List.filter
       (fun s ->
         match Sta.ws_stage_delay ws s 0 with
         | Some d -> d > o.clock +. 1e-12
         | None -> false)
       Compensation.analyzed)

let detect o ~systematic rng =
  let sigma = o.sampler.Sampler.sigma_rnd_nm in
  for i = 0 to o.n - 1 do
    o.lgates.(i) <- systematic.(i) +. (sigma *. Srng.gaussian rng)
  done;
  analyze_full o ~vdd:(fun _ -> o.low);
  let ws = o.ws in
  let worst_low =
    List.fold_left
      (fun acc s ->
        match Sta.ws_stage_delay ws s 0 with
        | Some d -> Float.max acc d
        | None -> acc)
      0.0 Compensation.analyzed
  in
  (* The skew settle's first guess: per analyzed stage, the worst of
     its capture flops' zero-skew endpoint delays with the capture at
     its offset and every launch at the latest offset of its cone. *)
  o.first_guess <-
    List.fold_left
      (fun (i, m) (_, caps) ->
        let worst =
          Array.fold_left
            (fun w cid ->
              Float.max w
                (Sta.ws_endpoint_delay ws cid 0 -. o.offs.(cid) +. o.reach.(cid)))
            neg_infinity caps
        in
        (i + 1, if worst > o.clock +. 1e-12 then m lor (1 lsl i) else m))
      (0, 0) o.skew_caps
    |> snd;
  { Compensation.violating = count_violating o ws; worst_low_ns = worst_low }

let passing o =
  { Compensation.meets = true; knob = 0; power_mw = o.power_baseline;
    area_um2 = 0.0 }

let vi o (d : Compensation.detect) =
  let meets_with raised =
    if raised = 0 then d.Compensation.violating = 0
    else begin
      analyze_full o ~vdd:(fun cid ->
          if o.domains.(cid) <= raised then o.high else o.low);
      count_violating o (o.ws) = 0
    end
  in
  let rec settle r =
    if r >= o.n_islands then (o.n_islands, meets_with o.n_islands)
    else if meets_with r then (r, true)
    else settle (r + 1)
  in
  let raised, meets = settle (min d.Compensation.violating o.n_islands) in
  { Compensation.meets; knob = raised; power_mw = o.power_of_raised.(raised);
    area_um2 = (if raised > 0 then o.ls_area else 0.0) }

let chipwide o (d : Compensation.detect) =
  if d.Compensation.violating = 0 then passing o
  else begin
    analyze_full o ~vdd:(fun _ -> o.high);
    { Compensation.meets = count_violating o (o.ws) = 0; knob = 1;
      power_mw = o.power_chip_wide; area_um2 = 0.0 }
  end

(* [Compensation.skew_tuning ~range_frac ~steps]'s settle, one tune
   state per pass. *)
let skew_with ?(range_frac = 0.10) ?(steps = 4) o (d : Compensation.detect) =
  if d.Compensation.violating = 0 then passing o
  else begin
    let max_tune = range_frac *. o.clock in
    let step = max_tune /. float_of_int steps in
    let max_iters = steps * List.length Compensation.analyzed in
    Array.iter (fun cid -> o.tune.(cid) <- 0.0) o.all_caps;
    scale_all o ~vdd:(fun _ -> o.low) o.skew_delays;
    let skew cid = o.offs.(cid) +. o.tune.(cid) in
    let failing s =
      match Sta_oracle.ws_stage_delay o.skew_ws s with
      | Some dd -> dd > o.clock +. 1e-12
      | None -> false
    in
    let trace = ref [] in
    let stop e = o.skew_end <- e; o.skew_trace <- List.rev !trace in
    let rec settle iters =
      Sta_oracle.analyze_into ~skew o.skew_ws ~delays:o.skew_delays;
      trace := failing_mask o (Sta_oracle.ws_stage_delay o.skew_ws) :: !trace;
      let bad = List.filter (fun (s, _) -> failing s) o.skew_caps in
      if bad = [] then (stop `Meets; true)
      else if iters <= 0 then (stop `Cap; false)
      else begin
        let moved = ref false in
        List.iter
          (fun (_, caps) ->
            Array.iter
              (fun cid ->
                if o.tune.(cid) +. step <= max_tune +. 1e-12 then begin
                  o.tune.(cid) <- o.tune.(cid) +. step;
                  moved := true
                end)
              caps)
          bad;
        if !moved then settle (iters - 1) else (stop `Saturated; false)
      end
    in
    let meets = settle max_iters in
    let knob =
      Array.fold_left
        (fun acc cid -> if o.tune.(cid) > 0.0 then acc + 1 else acc)
        0 o.all_caps
    in
    { Compensation.meets; knob;
      power_mw = o.power_baseline +. (float_of_int knob *. o.skew_unit_power);
      area_um2 = float_of_int knob *. o.skew_unit_area }
  end

let skew o d = skew_with o d

let buffers o (d : Compensation.detect) =
  if d.Compensation.violating = 0 then passing o
  else begin
    List.iter (fun cid -> o.trims.(cid) <- 0) o.sites;
    scale_all o ~vdd:(fun _ -> o.low) o.buf_delays;
    Sta_oracle.analyze_into o.buf_ws ~delays:o.buf_delays;
    let eff cid =
      Sta_oracle.ws_endpoint_delay o.buf_ws cid
      -. (float_of_int o.trims.(cid) *. o.trim)
    in
    let binding caps =
      Array.fold_left
        (fun (wc, wd) cid ->
          let dd = eff cid in
          if dd > wd then (cid, dd) else (wc, wd))
        (-1, neg_infinity) caps
    in
    let rec settle () =
      match
        List.filter
          (fun (_, caps) -> snd (binding caps) > o.clock +. 1e-12)
          o.skew_caps
      with
      | [] -> true
      | (_, caps) :: _ ->
        let cid, _ = binding caps in
        if cid >= 0 && o.trims.(cid) < o.site_cap.(cid) then begin
          o.trims.(cid) <- o.trims.(cid) + 1;
          settle ()
        end
        else false
    in
    let meets = settle () in
    let knob = List.fold_left (fun a cid -> a + o.trims.(cid)) 0 o.sites in
    { Compensation.meets; knob;
      power_mw = o.power_baseline +. (float_of_int knob *. o.buf_unit_power);
      area_um2 = float_of_int knob *. o.buf_unit_area }
  end

let apply o = function
  | Compensation.Vi -> vi o
  | Compensation.Chipwide -> chipwide o
  | Compensation.Skew -> skew o
  | Compensation.Buffers -> buffers o
