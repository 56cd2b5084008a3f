(* Lazy memoized stage graph.  See stage.mli for the contract. *)

module Trace = Pvtol_util.Trace
module Metrics = Pvtol_util.Metrics

(* Memo hits vs. computes: hit = the cell was already Done/Failed when
   forced; compute = this force ran the stage function.  Waiting on a
   Running cell counts as neither (the computing force owns it). *)
let m_memo_hits = Metrics.counter "stage_memo_hits_total"
let m_computes = Metrics.counter "stage_computes_total"

type error = {
  stage : string;
  chain : string list;
  message : string;
}

exception Stage_error of error

let error_message e =
  Printf.sprintf "stage %S failed (forced via %s): %s" e.stage
    (String.concat " -> " e.chain)
    e.message

let () =
  Printexc.register_printer (function
    | Stage_error e -> Some (error_message e)
    | _ -> None)

type graph = {
  trace : Trace.t;
  registry : Mutex.t;
  mutable names : string list;
}

let create () =
  { trace = Trace.create (); registry = Mutex.create (); names = [] }

let trace g = g.trace

let register g name =
  Mutex.lock g.registry;
  let dup = List.mem name g.names in
  if not dup then g.names <- name :: g.names;
  Mutex.unlock g.registry;
  if dup then invalid_arg (Printf.sprintf "Stage: duplicate node name %S" name)

(* A compute in progress: its stage instance's name and the instances
   it has forced so far, latest first. *)
type frame = { fname : string; mutable forced : string list }

(* The frames the current domain is computing, innermost first.
   Per-domain, so keyed nodes computed on pool workers get their own
   (short) chains. *)
let stack_key : frame list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

(* The names of the frames, outermost first. *)
let chain () = List.rev_map (fun f -> f.fname) !(Domain.DLS.get stack_key)

(* Record that the innermost compute on this domain forced [name],
   whether the force computes, hits the memo or waits. *)
let note_force name =
  match !(Domain.DLS.get stack_key) with
  | f :: _ when not (List.mem name f.forced) -> f.forced <- name :: f.forced
  | _ -> ()

(* [Running d]: domain [d] is computing the cell. *)
type 'a state = Pending | Running of Domain.id | Done of 'a | Failed of error

type 'a cell = {
  lock : Mutex.t;
  cond : Condition.t;
  mutable state : 'a state;
}

let new_cell () =
  { lock = Mutex.create (); cond = Condition.create (); state = Pending }

(* Compute [cells] (each already marked [Running] by this domain) with
   one call of [compute] under one span: each cell receives its own
   value, or all of them the one error. *)
let run_owned g cells ~name compute =
  Metrics.incr m_computes;
  let stack = Domain.DLS.get stack_key in
  let frame = { fname = name; forced = [] } in
  stack := frame :: !stack;
  let finish st =
    stack := List.tl !stack;
    List.iter
      (fun cell ->
        Mutex.lock cell.lock;
        cell.state <- st cell;
        Condition.broadcast cell.cond;
        Mutex.unlock cell.lock)
      cells
  in
  let fail e =
    finish (fun _ -> Failed e);
    raise (Stage_error e)
  in
  let deps () = List.rev frame.forced in
  match
    Trace.span g.trace ~name ~deps (fun () ->
        let vs = compute () in
        if List.compare_lengths vs cells <> 0 then
          invalid_arg "Stage: a batch compute must return one value per key";
        vs)
  with
  | vs ->
    let tbl = List.combine cells vs in
    finish (fun cell -> Done (List.assq cell tbl));
    vs
  | exception Stage_error e ->
    (* Already attributed to the stage that actually failed. *)
    fail e
  | exception exn ->
    fail { stage = name; chain = chain (); message = Printexc.to_string exn }

(* Wait for one cell's memoized value or error; [cell.lock] is held on
   entry.  A cell this domain is itself computing — alone or as one key
   of a batch — is a dependency cycle. *)
let rec await cell ~name ~first =
  match cell.state with
  | Done v ->
    if first then Metrics.incr m_memo_hits;
    Mutex.unlock cell.lock;
    v
  | Failed e ->
    if first then Metrics.incr m_memo_hits;
    Mutex.unlock cell.lock;
    raise (Stage_error e)
  | Running owner when owner = Domain.self () ->
    Mutex.unlock cell.lock;
    let chain = chain () @ [ name ] in
    raise (Stage_error { stage = name; chain; message = "dependency cycle" })
  | Running _ ->
    Condition.wait cell.cond cell.lock;
    await cell ~name ~first:false
  | Pending -> assert false

(* Mark a pending cell [Running]: true if this domain now owns it. *)
let claim cell =
  Mutex.lock cell.lock;
  let mine = match cell.state with Pending -> true | _ -> false in
  if mine then cell.state <- Running (Domain.self ());
  Mutex.unlock cell.lock;
  mine

(* Force one cell: memoized value or error; computes at most once.  A
   concurrent forcing domain blocks until the computing domain stores a
   result; re-entrant forcing from the same domain is a dependency
   cycle. *)
let force_cell g cell ~name compute =
  note_force name;
  if claim cell then List.hd (run_owned g [ cell ] ~name (fun () -> [ compute () ]))
  else begin
    Mutex.lock cell.lock;
    await cell ~name ~first:true
  end

type 'a node = {
  graph : graph;
  name : string;
  compute : unit -> 'a;
  cell : 'a cell;
}

let node g ~name compute =
  register g name;
  { graph = g; name; compute; cell = new_cell () }

let name n = n.name
let get n = force_cell n.graph n.cell ~name:n.name n.compute

type ('k, 'a) keyed = {
  kgraph : graph;
  kname : string;
  key_label : 'k -> string;
  kcompute : 'k list -> 'a list;
  table : (string, 'a cell) Hashtbl.t;
  table_lock : Mutex.t;
}

let keyed_batch g ~name ~key_label compute =
  register g name;
  {
    kgraph = g;
    kname = name;
    key_label;
    kcompute = compute;
    table = Hashtbl.create 8;
    table_lock = Mutex.create ();
  }

let keyed g ~name ~key_label compute =
  keyed_batch g ~name ~key_label (List.map compute)

let instance_name k labels = k.kname ^ "[" ^ String.concat "," labels ^ "]"

let cell_of k label =
  Mutex.lock k.table_lock;
  let cell =
    match Hashtbl.find_opt k.table label with
    | Some c -> c
    | None ->
      let c = new_cell () in
      Hashtbl.add k.table label c;
      c
  in
  Mutex.unlock k.table_lock;
  cell

let get_keyed_many k keys =
  List.iter (fun key -> note_force (instance_name k [ k.key_label key ])) keys;
  let cells = List.map (fun key -> (key, cell_of k (k.key_label key))) keys in
  (* Claim every pending instance, each once, and compute them together. *)
  let owned = List.filter (fun (_, cell) -> claim cell) cells in
  let values =
    match owned with
    | [] -> []
    | _ :: _ ->
      let keys, owned_cells = List.split owned in
      List.combine owned_cells
        (run_owned k.kgraph owned_cells
           ~name:(instance_name k (List.map k.key_label keys))
           (fun () -> k.kcompute keys))
  in
  List.map
    (fun (key, cell) ->
      match List.assq_opt cell values with
      | Some v -> v
      | None ->
        Mutex.lock cell.lock;
        await cell ~name:(instance_name k [ k.key_label key ]) ~first:true)
    cells

let get_keyed k key = List.hd (get_keyed_many k [ key ])
