open Pvtol_netlist
module Kind = Pvtol_stdcell.Kind
module Cell_lib = Pvtol_stdcell.Cell
module Srng = Pvtol_util.Srng
module Metrics = Pvtol_util.Metrics

let m_runs = Metrics.counter "gatesim_runs_total"

type stimulus = cycle:int -> input_index:int -> bool

type activity = {
  cycles : int;
  toggles : int array;
  rates : float array;
  final_edge : bool array;
}

let rates ~cycles toggles =
  Array.map (fun t -> float_of_int t /. float_of_int cycles) toggles

(* Levelized combinational order (flip-flops excluded). *)
let topo_order (nl : Netlist.t) =
  let n = Netlist.cell_count nl in
  let indeg = Array.make n 0 in
  Array.iter
    (fun (c : Netlist.cell) ->
      if Netlist.is_comb c then
        Array.iter
          (fun nid ->
            match nl.Netlist.nets.(nid).Netlist.driver with
            | Some d when Netlist.is_comb nl.Netlist.cells.(d) ->
              indeg.(c.Netlist.id) <- indeg.(c.Netlist.id) + 1
            | Some _ | None -> ())
          c.Netlist.fanins)
    nl.Netlist.cells;
  let queue = Queue.create () in
  Array.iter
    (fun (c : Netlist.cell) ->
      if Netlist.is_comb c && indeg.(c.Netlist.id) = 0 then
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
        if Netlist.is_comb nl.Netlist.cells.(sink) then begin
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
  Metrics.incr m_runs;
  let p = compile nl in
  let value = Array.make (Netlist.net_count nl) false in
  let toggles = Array.make (Netlist.cell_count nl) 0 in
  let final_edge = Array.make (Netlist.cell_count nl) false in
  let flops = Netlist.flops nl in
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
        toggles.(cid) <- toggles.(cid) + 1;
        final_edge.(cid) <- cycle = cycles - 1
      end;
      value.(q) <- captured.(i)
    done
  done;
  { cycles; toggles; rates = rates ~cycles toggles; final_edge }

(* A buffer appended on a net repeats the net's settled value each
   cycle.  Behind a combinational driver it toggles with it; behind a
   flop it sees Q one cycle late, so it misses the change of the final
   edge (no evaluation follows that edge).  Base cells see the same
   values through their buffers and keep their counts. *)
let extend a ~(base : Netlist.t) (nl : Netlist.t) =
  let n = Netlist.cell_count base and m = Netlist.net_count base in
  if
    Array.length a.toggles <> n || Netlist.cell_count nl < n
    || Netlist.net_count nl < m || nl.Netlist.inputs <> base.Netlist.inputs
  then invalid_arg "Gatesim.extend: the netlist does not extend the base netlist";
  let kind (c : Netlist.cell) = c.Netlist.cell.Cell_lib.kind in
  (* The base net an appended buffer repeats; -1 for any other cell. *)
  let buffered cid =
    let c = nl.Netlist.cells.(cid) in
    match (kind c, c.Netlist.fanins) with
    | (Kind.Buf | Kind.Ls), [| src |] when src < m && c.Netlist.fanout >= m -> src
    | _ -> -1
  in
  let source nid =
    match nl.Netlist.nets.(nid).Netlist.driver with
    | Some b when b >= n -> buffered b
    | Some _ | None -> nid
  in
  let fail (c : Netlist.cell) =
    Printf.ksprintf invalid_arg
      "Gatesim.extend: %s is neither a base cell nor a buffer on a base net" c.Netlist.name
  in
  let toggles =
    Array.mapi
      (fun cid (c : Netlist.cell) ->
        if cid < n then begin
          let b = base.Netlist.cells.(cid) in
          if
            kind c <> kind b || c.Netlist.fanout <> b.Netlist.fanout
            || Array.map source c.Netlist.fanins <> b.Netlist.fanins
          then fail c;
          a.toggles.(cid)
        end
        else
          let src = buffered cid in
          match if src < 0 then None else nl.Netlist.nets.(src).Netlist.driver with
          | Some d -> a.toggles.(d) - Bool.to_int a.final_edge.(d)
          | None -> fail c)
      nl.Netlist.cells
  in
  {
    cycles = a.cycles;
    toggles;
    rates = rates ~cycles:a.cycles toggles;
    final_edge =
      Array.append a.final_edge (Array.make (Array.length toggles - n) false);
  }

let random_stimulus ~seed =
  (* Stateless hashing keeps the stimulus independent of evaluation
     order: bit = hash(seed, cycle, input). *)
  fun ~cycle ~input_index ->
    let g = Srng.create ((seed * 0x9E3779B1) lxor (cycle * 2654435761) lxor input_index) in
    Srng.uniform g < 0.5

let instr_prefix = "instr"

let trace_stimulus (nl : Netlist.t) ~words ~fallback =
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
  stim

let mean_rate a =
  if Array.length a.rates = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a.rates /. float_of_int (Array.length a.rates)
