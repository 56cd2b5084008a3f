open Pvtol_netlist
module Kind = Pvtol_stdcell.Kind
module Cell_lib = Pvtol_stdcell.Cell
module Srng = Pvtol_util.Srng

type stimulus = cycle:int -> input_index:int -> bool

type activity = {
  cycles : int;
  toggles : int array;
  rates : float array;
}

(* Levelized combinational order (flip-flops excluded). *)
let topo_order (nl : Netlist.t) =
  let n = Netlist.cell_count nl in
  let is_seq (c : Netlist.cell) =
    Kind.is_sequential c.Netlist.cell.Cell_lib.kind
  in
  let indeg = Array.make n 0 in
  Array.iter
    (fun (c : Netlist.cell) ->
      if not (is_seq c) then
        Array.iter
          (fun nid ->
            match nl.Netlist.nets.(nid).Netlist.driver with
            | Some d when not (is_seq nl.Netlist.cells.(d)) ->
              indeg.(c.Netlist.id) <- indeg.(c.Netlist.id) + 1
            | Some _ | None -> ())
          c.Netlist.fanins)
    nl.Netlist.cells;
  let queue = Queue.create () in
  Array.iter
    (fun (c : Netlist.cell) ->
      if (not (is_seq c)) && indeg.(c.Netlist.id) = 0 then
        Queue.add c.Netlist.id queue)
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

(* The levelized combinational cells flattened once into parallel
   arrays: kind, output net and up to three input nets per slot (unused
   pins hold net 0 and are never read).  Evaluation is a direct match
   on the kind over these arrays, with no per-cell allocation. *)
type compiled = {
  cell_id : int array;
  kind : Kind.t array;
  out : int array;
  pin0 : int array;
  pin1 : int array;
  pin2 : int array;
}

let compile (nl : Netlist.t) =
  let order = topo_order nl in
  let cell cid = nl.Netlist.cells.(cid) in
  let pin k cid =
    let fanins = (cell cid).Netlist.fanins in
    if k < Array.length fanins then fanins.(k) else 0
  in
  Array.iter
    (fun cid ->
      let c = cell cid in
      if Array.length c.Netlist.fanins <> Kind.arity c.Netlist.cell.Cell_lib.kind
      then invalid_arg "Gatesim.run: arity mismatch")
    order;
  {
    cell_id = order;
    kind = Array.map (fun cid -> (cell cid).Netlist.cell.Cell_lib.kind) order;
    out = Array.map (fun cid -> (cell cid).Netlist.fanout) order;
    pin0 = Array.map (pin 0) order;
    pin1 = Array.map (pin 1) order;
    pin2 = Array.map (pin 2) order;
  }

let eval_comb p (value : bool array) i =
  Kind.eval3 p.kind.(i) value.(p.pin0.(i)) value.(p.pin1.(i)) value.(p.pin2.(i))

let run ?(cycles = 512) (nl : Netlist.t) stimulus =
  let p = compile nl in
  let value = Array.make (Netlist.net_count nl) false in
  let toggles = Array.make (Netlist.cell_count nl) 0 in
  let flops =
    Array.to_list nl.Netlist.cells
    |> List.filter (fun (c : Netlist.cell) ->
           Kind.is_sequential c.Netlist.cell.Cell_lib.kind)
    |> Array.of_list
  in
  let flop_d = Array.map (fun (c : Netlist.cell) -> c.Netlist.fanins.(0)) flops in
  let flop_q = Array.map (fun (c : Netlist.cell) -> c.Netlist.fanout) flops in
  let captured = Array.make (Array.length flops) false in
  let inputs = nl.Netlist.inputs in
  for cycle = 0 to cycles - 1 do
    for idx = 0 to Array.length inputs - 1 do
      value.(inputs.(idx)) <- stimulus ~cycle ~input_index:idx
    done;
    (* Flop outputs already hold this cycle's Q; evaluate logic. *)
    for i = 0 to Array.length p.cell_id - 1 do
      let v = eval_comb p value i in
      let o = p.out.(i) in
      if v <> value.(o) then begin
        let cid = p.cell_id.(i) in
        toggles.(cid) <- toggles.(cid) + 1
      end;
      value.(o) <- v
    done;
    (* Clock edge: all flops capture D simultaneously. *)
    for i = 0 to Array.length flops - 1 do
      captured.(i) <- value.(flop_d.(i))
    done;
    for i = 0 to Array.length flops - 1 do
      let q = flop_q.(i) in
      if captured.(i) <> value.(q) then begin
        let cid = flops.(i).Netlist.id in
        toggles.(cid) <- toggles.(cid) + 1
      end;
      value.(q) <- captured.(i)
    done
  done;
  {
    cycles;
    toggles;
    rates =
      Array.map (fun t -> float_of_int t /. float_of_int cycles) toggles;
  }

let random_stimulus ~seed =
  (* Stateless hashing keeps the stimulus independent of evaluation
     order: bit = hash(seed, cycle, input). *)
  fun ~cycle ~input_index ->
    let g = Srng.create ((seed * 0x9E3779B1) lxor (cycle * 2654435761) lxor input_index) in
    Srng.uniform g < 0.5

let trace_stimulus (nl : Netlist.t) ~instr_prefix ~words ~fallback =
  let words = Array.of_list words in
  let n_cycles = Array.length words in
  assert (n_cycles > 0);
  (* Map input index -> bit of the per-cycle word bundle when the input
     is [instr_prefix[k]] with [k] inside every bundle; any other name,
     a non-integer index or one past the bundle takes [fallback]. *)
  let bundle_bits =
    32 * Array.fold_left (fun acc w -> min acc (Array.length w)) max_int words
  in
  let classify =
    Array.map
      (fun nid ->
        let name = nl.Netlist.nets.(nid).Netlist.net_name in
        let plen = String.length instr_prefix in
        let len = String.length name in
        if
          len > plen + 1
          && String.sub name 0 plen = instr_prefix
          && name.[plen] = '['
          && name.[len - 1] = ']'
        then
          match int_of_string_opt (String.sub name (plen + 1) (len - plen - 2)) with
          | Some idx when idx >= 0 && idx < bundle_bits -> Some idx
          | Some _ | None -> None
        else None)
      nl.Netlist.inputs
  in
  let stim ~cycle ~input_index =
    match classify.(input_index) with
    | Some bit_idx ->
      let bundle = words.(cycle mod n_cycles) in
      let word = bundle.(bit_idx / 32) in
      Int32.logand (Int32.shift_right_logical word (bit_idx mod 32)) 1l = 1l
    | None -> fallback ~cycle ~input_index
  in
  (stim, n_cycles)

let mean_rate a =
  if Array.length a.rates = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a.rates /. float_of_int (Array.length a.rates)
