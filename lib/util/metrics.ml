(* Counter registry over per-domain shards.  See metrics.mli for the
   contract.

   Hot-path design: each counter owns a [Domain.DLS] key whose
   initializer creates that domain's shard and pushes it onto the
   counter's shard list (a lock-free CAS stack).  An update is then a
   DLS lookup plus a plain mutable store — no lock, no atomic RMW, no
   allocation.  Reads sum the shards; integer addition is exact in any
   order, so deterministic workloads give bit-identical counters for
   any domain count. *)

let enabled_flag = ref false

let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

type shard = { mutable count : int }

type counter = {
  key : shard Domain.DLS.key;
  shards : shard list Atomic.t;
}

let make_counter () =
  let shards = Atomic.make [] in
  let rec push s =
    let old = Atomic.get shards in
    if not (Atomic.compare_and_set shards old (s :: old)) then push s
  in
  let key =
    Domain.DLS.new_key (fun () ->
        let s = { count = 0 } in
        push s;
        s)
  in
  { key; shards }

let add c n =
  if !enabled_flag then begin
    let s = Domain.DLS.get c.key in
    s.count <- s.count + n
  end

let incr c = add c 1

let counter_value c =
  List.fold_left (fun acc s -> acc + s.count) 0 (Atomic.get c.shards)

(* --- registry --- *)

let registry : (string, counter) Hashtbl.t = Hashtbl.create 32
let registry_mu = Mutex.create ()

let valid_name name =
  String.length name > 0
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       name

let counter name =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Metrics: bad metric name %S" name);
  Mutex.lock registry_mu;
  let c =
    match Hashtbl.find_opt registry name with
    | Some c -> c
    | None ->
      let c = make_counter () in
      Hashtbl.add registry name c;
      c
  in
  Mutex.unlock registry_mu;
  c

(* --- snapshot and export --- *)

type snapshot = (string * int) list

let snapshot () =
  Mutex.lock registry_mu;
  let entries = Hashtbl.fold (fun name c acc -> (name, c) :: acc) registry [] in
  Mutex.unlock registry_mu;
  entries
  |> List.map (fun (name, c) -> (name, counter_value c))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_value (snap : snapshot) =
  Json.Obj
    [ ("counters", Json.Obj (List.map (fun (n, c) -> (n, Json.Int c)) snap)) ]

let summary_line (snap : snapshot) =
  let parts =
    List.filter_map
      (fun (name, c) ->
        if c > 0 then Some (Printf.sprintf "%s=%d" name c) else None)
      snap
  in
  "metrics: "
  ^ (match parts with [] -> "(no nonzero counters)" | _ -> String.concat " " parts)
