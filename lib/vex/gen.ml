open Pvtol_netlist
module Kind = Pvtol_stdcell.Kind
module Cell = Pvtol_stdcell.Cell
module Srng = Pvtol_util.Srng

type net = Netlist.net_id
type bus = net array

type t = {
  b : Netlist.Builder.t;
  stage : Stage.t;
  unit_name : string;
  rng : Srng.t;
}

let create ?design_name ~seed lib =
  {
    b = Netlist.Builder.create ?design_name lib;
    stage = Stage.Fetch;
    unit_name = "top";
    rng = Srng.create seed;
  }

let builder t = t.b
let rng t = t.rng

let within t ?stage ?unit_name () =
  {
    t with
    stage = Option.value stage ~default:t.stage;
    unit_name = Option.value unit_name ~default:t.unit_name;
  }

let stage t = t.stage
let unit_name t = t.unit_name

let gate t ?drive kind fanins =
  Netlist.Builder.add t.b ?drive ~stage:t.stage ~unit_name:t.unit_name kind fanins

let inv t a = gate t Kind.Inv [| a |]
let buf t ?drive a = gate t ?drive Kind.Buf [| a |]
let and2 t a b = gate t Kind.And2 [| a; b |]
let or2 t a b = gate t Kind.Or2 [| a; b |]
let xor2 t a b = gate t Kind.Xor2 [| a; b |]
let xnor2 t a b = gate t Kind.Xnor2 [| a; b |]
let mux2 t a b ~sel = gate t Kind.Mux2 [| a; b; sel |]
let dff t d = gate t Kind.Dff [| d |]

let dff_deferred t =
  let stub = Netlist.Builder.placeholder t.b "dstub" in
  let q = dff t stub in
  let cell =
    match Netlist.Builder.driver_of t.b q with
    | Some c -> c
    | None -> assert false
  in
  (q, fun d -> Netlist.Builder.rewire t.b ~cell ~pin:0 d)
let tie0 t = gate t Kind.Tielo [||]
let tie1 t = gate t Kind.Tiehi [||]

let inputs t name w =
  Array.init w (fun i ->
      Netlist.Builder.input t.b (Printf.sprintf "%s[%d]" name i))

let outputs t name bus =
  Array.iteri
    (fun i n -> Netlist.Builder.output t.b n (Printf.sprintf "%s[%d]" name i))
    bus

let reg_bus t bus = Array.map (dff t) bus
let mux2_bus t a b ~sel = Array.map2 (fun x y -> mux2 t x y ~sel) a b

let fanout_tree t ?(fanout = 8) net n =
  let drive = Cell.X2 in
  assert (n > 0 && fanout >= 2);
  (* Grow drivers level by level until we can serve n sinks. *)
  let rec grow leaves =
    if List.length leaves * fanout >= n then leaves
    else grow (List.concat_map (fun l -> List.init fanout (fun _ -> buf t ~drive l)) leaves)
  in
  let leaves =
    if n <= fanout then [ net ]
    else grow [ buf t ~drive net ]
  in
  let leaves = Array.of_list leaves in
  Array.init n (fun i -> leaves.(i * Array.length leaves / n))

let rec reduce_tree f t = function
  | [] -> invalid_arg "reduce_tree: empty"
  | [ x ] -> x
  | nets ->
    let rec pair = function
      | a :: b :: rest -> f t a b :: pair rest
      | [ a ] -> [ a ]
      | [] -> []
    in
    reduce_tree f t (pair nets)

let and_tree t = function [] -> tie1 t | nets -> reduce_tree and2 t nets
let or_tree t = function [] -> tie0 t | nets -> reduce_tree or2 t nets
