module Cell_lib = Pvtol_stdcell.Cell
module Kind = Pvtol_stdcell.Kind

type cell_id = int
type net_id = int

type cell = {
  id : cell_id;
  name : string;
  cell : Cell_lib.t;
  stage : Stage.t;
  unit_name : string;
  fanins : net_id array;
  fanout : net_id;
}

type net = {
  net_id : net_id;
  net_name : string;
  driver : cell_id option;
  sinks : (cell_id * int) array;
  is_output : bool;
}

type t = {
  design_name : string;
  lib : Cell_lib.library;
  cells : cell array;
  nets : net array;
  inputs : net_id array;
  outputs : net_id array;
}

(* Growable array used only during construction. *)
module Vec = struct
  type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

  let create dummy = { data = Array.make 64 dummy; len = 0; dummy }

  let push v x =
    if v.len = Array.length v.data then begin
      let bigger = Array.make (2 * v.len) v.dummy in
      Array.blit v.data 0 bigger 0 v.len;
      v.data <- bigger
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let get v i = v.data.(i)
  let length v = v.len
  let to_array v = Array.sub v.data 0 v.len
end

module Builder = struct
  type proto_net = {
    mutable p_name : string;
    mutable p_driver : cell_id option;
    mutable p_sinks : (cell_id * int) list;
    mutable p_output : bool;
  }

  type t = {
    lib : Cell_lib.library;
    design_name : string;
    b_cells : cell Vec.t;
    b_nets : proto_net Vec.t;
    mutable b_inputs : net_id list;
    mutable b_outputs : net_id list;
  }

  let dummy_cell =
    {
      id = -1;
      name = "";
      cell = List.hd Cell_lib.default_library.Cell_lib.cells;
      stage = Stage.Fetch;
      unit_name = "";
      fanins = [||];
      fanout = -1;
    }

  let dummy_net = { p_name = ""; p_driver = None; p_sinks = []; p_output = false }

  let create ?(design_name = "design") lib =
    {
      lib;
      design_name;
      b_cells = Vec.create dummy_cell;
      b_nets = Vec.create dummy_net;
      b_inputs = [];
      b_outputs = [];
    }

  let fresh_net b name =
    let id = Vec.length b.b_nets in
    Vec.push b.b_nets { p_name = name; p_driver = None; p_sinks = []; p_output = false };
    id

  let input b name =
    let id = fresh_net b name in
    b.b_inputs <- id :: b.b_inputs;
    id

  let add b ?(drive = Cell_lib.X1) ?name ~stage ~unit_name kind fanins =
    let arity = Kind.arity kind in
    if Array.length fanins <> arity then
      invalid_arg
        (Printf.sprintf "Builder.add: %s expects %d inputs, got %d"
           (Kind.name kind) arity (Array.length fanins));
    let nnets = Vec.length b.b_nets in
    Array.iter
      (fun n ->
        if n < 0 || n >= nnets then invalid_arg "Builder.add: undeclared net")
      fanins;
    let id = Vec.length b.b_cells in
    let cname =
      match name with Some n -> n | None -> Printf.sprintf "u%d" id
    in
    let out = fresh_net b (cname ^ "_o") in
    let cell_t = Cell_lib.find b.lib kind drive in
    Vec.push b.b_cells
      { id; name = cname; cell = cell_t; stage; unit_name; fanins; fanout = out };
    Array.iteri
      (fun pin n ->
        let pn = Vec.get b.b_nets n in
        pn.p_sinks <- (id, pin) :: pn.p_sinks)
      fanins;
    (Vec.get b.b_nets out).p_driver <- Some id;
    out

  let output b n name =
    let pn = Vec.get b.b_nets n in
    pn.p_output <- true;
    pn.p_name <- name;
    b.b_outputs <- n :: b.b_outputs

  let placeholder b name = fresh_net b name

  let driver_of b n = (Vec.get b.b_nets n).p_driver

  let merge b ~placeholder real =
    if placeholder = real then invalid_arg "Builder.merge: self-merge";
    let src = Vec.get b.b_nets placeholder in
    if src.p_driver <> None then invalid_arg "Builder.merge: placeholder is driven";
    let dst = Vec.get b.b_nets real in
    List.iter
      (fun (cid, pin) ->
        (Vec.get b.b_cells cid).fanins.(pin) <- real;
        dst.p_sinks <- (cid, pin) :: dst.p_sinks)
      src.p_sinks;
    src.p_sinks <- []

  let rewire b ~cell ~pin n =
    if cell < 0 || cell >= Vec.length b.b_cells then
      invalid_arg "Builder.rewire: bad cell";
    if n < 0 || n >= Vec.length b.b_nets then invalid_arg "Builder.rewire: bad net";
    let c = Vec.get b.b_cells cell in
    if pin < 0 || pin >= Array.length c.fanins then
      invalid_arg "Builder.rewire: bad pin";
    let old = c.fanins.(pin) in
    let old_pn = Vec.get b.b_nets old in
    old_pn.p_sinks <-
      List.filter (fun (cid, p) -> not (cid = cell && p = pin)) old_pn.p_sinks;
    c.fanins.(pin) <- n;
    let pn = Vec.get b.b_nets n in
    pn.p_sinks <- (cell, pin) :: pn.p_sinks

  let cell_count b = Vec.length b.b_cells

  let check_acyclic cells nets =
    (* Kahn's algorithm on the combinational core.  Flip-flop outputs are
       sources; flip-flop inputs are sinks; a leftover node means a
       combinational cycle. *)
    let ncells = Array.length cells in
    let indeg = Array.make ncells 0 in
    let comb c = not (Kind.is_sequential c.cell.Cell_lib.kind) in
    Array.iter
      (fun c ->
        if comb c then
          Array.iter
            (fun n ->
              match nets.(n).driver with
              | Some d when comb cells.(d) -> indeg.(c.id) <- indeg.(c.id) + 1
              | Some _ | None -> ())
            c.fanins)
      cells;
    let queue = Queue.create () in
    Array.iter (fun c -> if comb c && indeg.(c.id) = 0 then Queue.add c.id queue) cells;
    let visited = ref 0 in
    while not (Queue.is_empty queue) do
      let cid = Queue.pop queue in
      incr visited;
      let out = cells.(cid).fanout in
      Array.iter
        (fun (sink, _pin) ->
          if comb cells.(sink) then begin
            indeg.(sink) <- indeg.(sink) - 1;
            if indeg.(sink) = 0 then Queue.add sink queue
          end)
        nets.(out).sinks
    done;
    let comb_total = Array.fold_left (fun acc c -> if comb c then acc + 1 else acc) 0 cells in
    if !visited <> comb_total then
      failwith
        (Printf.sprintf "combinational cycle: %d of %d cells unreachable"
           (comb_total - !visited) comb_total)

  let freeze b =
    let cells = Vec.to_array b.b_cells in
    let inputs = Array.of_list (List.rev b.b_inputs) in
    let is_input = Hashtbl.create 64 in
    Array.iter (fun n -> Hashtbl.replace is_input n ()) inputs;
    let nets =
      Array.init (Vec.length b.b_nets) (fun i ->
          let pn = Vec.get b.b_nets i in
          let dead = pn.p_driver = None && pn.p_sinks = [] && not pn.p_output in
          if pn.p_driver = None && not (Hashtbl.mem is_input i) && not dead then
            failwith (Printf.sprintf "undriven net %s (id %d)" pn.p_name i);
          {
            net_id = i;
            net_name = pn.p_name;
            driver = pn.p_driver;
            sinks = Array.of_list (List.rev pn.p_sinks);
            is_output = pn.p_output;
          })
    in
    check_acyclic cells nets;
    {
      design_name = b.design_name;
      lib = b.lib;
      cells;
      nets;
      inputs;
      outputs = Array.of_list (List.rev b.b_outputs);
    }
end

let cell_count t = Array.length t.cells
let net_count t = Array.length t.nets

let area t =
  Array.fold_left (fun acc c -> acc +. c.cell.Cell_lib.area) 0.0 t.cells

let area_of_stage t stage =
  Array.fold_left
    (fun acc c -> if Stage.equal c.stage stage then acc +. c.cell.Cell_lib.area else acc)
    0.0 t.cells

let is_comb c = not (Kind.is_sequential c.cell.Cell_lib.kind)

let flops t = Array.of_list (List.filter (fun c -> not (is_comb c)) (Array.to_list t.cells))

let stats_by_stage t =
  List.filter_map
    (fun stage ->
      let count = ref 0 and a = ref 0.0 in
      Array.iter
        (fun c ->
          if Stage.equal c.stage stage then begin
            incr count;
            a := !a +. c.cell.Cell_lib.area
          end)
        t.cells;
      if !count = 0 then None else Some (stage, !count, !a))
    Stage.all

let pp_summary fmt t =
  Format.fprintf fmt "design %s: %d cells, %d nets, %.0f um^2@."
    t.design_name (cell_count t) (net_count t) (area t);
  List.iter
    (fun (stage, n, a) ->
      Format.fprintf fmt "  %-14s %7d cells  %10.0f um^2 (%.2f%%)@."
        (Stage.name stage) n a (100.0 *. a /. area t))
    (stats_by_stage t)

let remap_cells t f =
  let cells =
    Array.map
      (fun c ->
        let replacement = f c in
        if replacement.Cell_lib.kind <> c.cell.Cell_lib.kind then
          invalid_arg "remap_cells: kind change not allowed";
        { c with cell = replacement })
      t.cells
  in
  { t with cells }

let check t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  Array.iteri
    (fun i c ->
      if c.id <> i then err "cell %d has id %d" i c.id;
      if c.fanout < 0 || c.fanout >= net_count t then err "cell %d: bad fanout net" i;
      (match t.nets.(c.fanout).driver with
      | Some d when d = i -> ()
      | _ -> err "cell %d: fanout net does not point back" i);
      Array.iteri
        (fun pin n ->
          if n < 0 || n >= net_count t then err "cell %d pin %d: bad net" i pin
          else
            let found =
              Array.exists (fun (cid, p) -> cid = i && p = pin) t.nets.(n).sinks
            in
            if not found then err "cell %d pin %d: missing sink back-reference" i pin)
        c.fanins)
    t.cells;
  Array.iteri
    (fun i n ->
      if n.net_id <> i then err "net %d has id %d" i n.net_id;
      (match n.driver with
      | Some d ->
        if d < 0 || d >= cell_count t then err "net %d: bad driver" i
        else if t.cells.(d).fanout <> i then err "net %d: driver does not point back" i
      | None ->
        let dead = Array.length n.sinks = 0 && not n.is_output in
        if (not dead) && not (Array.exists (fun inp -> inp = i) t.inputs) then
          err "net %d (%s): undriven and not a primary input" i n.net_name);
      Array.iter
        (fun (cid, pin) ->
          if cid < 0 || cid >= cell_count t then err "net %d: bad sink cell" i
          else if
            pin < 0
            || pin >= Array.length t.cells.(cid).fanins
            || t.cells.(cid).fanins.(pin) <> i
          then err "net %d: inconsistent sink (%d,%d)" i cid pin)
        n.sinks)
    t.nets;
  (try Builder.check_acyclic t.cells t.nets with Failure m -> err "%s" m);
  match !errors with [] -> Ok () | es -> Error (List.rev es)
