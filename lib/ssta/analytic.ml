open Pvtol_netlist
module Sta = Pvtol_timing.Sta
module Sampler = Pvtol_variation.Sampler
module Specfun = Pvtol_util.Specfun

type gaussian = { mean : float; var : float }

(* Standard normal pdf / cdf. *)
let phi x = exp (-0.5 *. x *. x) /. sqrt (2.0 *. Float.pi)
let cap_phi x = Specfun.normal_cdf ~mu:0.0 ~sigma:1.0 x

let clark_max a b =
  let theta2 = a.var +. b.var in
  if theta2 < 1e-24 then if a.mean >= b.mean then a else b
  else begin
    let theta = sqrt theta2 in
    let alpha = (a.mean -. b.mean) /. theta in
    let t = cap_phi alpha in
    let mean =
      (a.mean *. t) +. (b.mean *. (1.0 -. t)) +. (theta *. phi alpha)
    in
    let second =
      ((a.var +. (a.mean *. a.mean)) *. t)
      +. ((b.var +. (b.mean *. b.mean)) *. (1.0 -. t))
      +. ((a.mean +. b.mean) *. theta *. phi alpha)
    in
    { mean; var = Float.max 0.0 (second -. (mean *. mean)) }
  end

type result = {
  stage_delay : (Stage.t * gaussian) list;
  worst : gaussian;
}

let analyze ~sta ~sampler ~systematic =
  let nl = Sta.netlist sta in
  let lib = nl.Netlist.lib in
  let v = lib.Pvtol_stdcell.Cell.process.Pvtol_stdcell.Process.vdd_low in
  let base = Sta.nominal_delays sta in
  let n = Netlist.cell_count nl in
  (* Per-cell delay distribution: the mean follows the systematic Lgate,
     the standard deviation is the first-order sensitivity to one sigma
     of the random component. *)
  let scale lgates =
    let out = Array.make n 0.0 in
    Pvtol_stdcell.Process.scale_into sampler.Sampler.process ~vdd:v
      ~base:(Array.make n 1.0) ~lgates ~out;
    out
  in
  let s0 = scale systematic in
  let s1 =
    scale (Array.map (fun lg -> lg +. sampler.Sampler.sigma_rnd_nm) systematic)
  in
  let delay =
    Array.init n (fun i ->
        let sigma = base.(i) *. Float.abs (s1.(i) -. s0.(i)) in
        { mean = base.(i) *. s0.(i); var = sigma *. sigma })
  in
  let zero = { mean = 0.0; var = 0.0 } in
  let arrival = Array.make (Netlist.net_count nl) zero in
  let shift g dt = { g with mean = g.mean +. dt } in
  let add a b = { mean = a.mean +. b.mean; var = a.var +. b.var } in
  Array.iter
    (fun cid -> arrival.(nl.Netlist.cells.(cid).Netlist.fanout) <- delay.(cid))
    (Sta.flop_ids sta);
  Array.iter
    (fun cid ->
      let c = nl.Netlist.cells.(cid) in
      let acc = ref zero in
      let first = ref true in
      Array.iteri
        (fun pin nid ->
          let a = shift arrival.(nid) (Sta.pin_wire_delay sta cid pin) in
          if !first then begin
            acc := a;
            first := false
          end
          else acc := clark_max !acc a)
        c.Netlist.fanins;
      arrival.(c.Netlist.fanout) <- add !acc delay.(cid))
    (Sta.comb_order sta);
  let setup = lib.Pvtol_stdcell.Cell.setup in
  let per_stage = Hashtbl.create 8 in
  let worst = ref zero in
  let worst_set = ref false in
  Array.iter
    (fun cid ->
      let c = nl.Netlist.cells.(cid) in
      let d_pin = c.Netlist.fanins.(0) in
      let ep =
        shift arrival.(d_pin) (Sta.pin_wire_delay sta cid 0 +. setup)
      in
      if !worst_set then worst := clark_max !worst ep
      else begin
        worst := ep;
        worst_set := true
      end;
      match Sta.capture_stage_of sta cid with
      | Some stage ->
        let cur = Hashtbl.find_opt per_stage stage in
        Hashtbl.replace per_stage stage
          (match cur with None -> ep | Some g -> clark_max g ep)
      | None -> ())
    (Sta.flop_ids sta);
  let stage_delay =
    List.filter_map
      (fun s -> Option.map (fun g -> (s, g)) (Hashtbl.find_opt per_stage s))
      Stage.all
  in
  { stage_delay; worst = !worst }

let three_sigma g = g.mean +. (3.0 *. sqrt g.var)
