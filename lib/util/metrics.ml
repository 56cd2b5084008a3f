(* Metrics registry over per-domain shards.  See metrics.mli for the
   contract.

   Hot-path design: each metric owns a [Domain.DLS] key whose
   initializer creates that domain's shard and pushes it onto the
   metric's shard list (a lock-free CAS stack).  An update is then a
   DLS lookup plus a plain mutable store — no lock, no atomic RMW, no
   allocation.  Reads merge the shards sorted by creating-domain id;
   integer counts merge by exact addition, so deterministic workloads
   give bit-identical counters for any domain count. *)

let enabled_flag = ref false

let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

let push_shard shards s =
  let rec go () =
    let old = Atomic.get shards in
    if not (Atomic.compare_and_set shards old (s :: old)) then go ()
  in
  go ()

let by_domain domain_of shards =
  List.sort (fun a b -> compare (domain_of a) (domain_of b)) shards

(* --- counters --- *)

type counter_shard = { c_domain : int; mutable c_count : int }

type counter = {
  c_name : string;
  c_key : counter_shard Domain.DLS.key;
  c_shards : counter_shard list Atomic.t;
}

let make_counter name =
  let shards = Atomic.make [] in
  let key =
    Domain.DLS.new_key (fun () ->
        let s = { c_domain = (Domain.self () :> int); c_count = 0 } in
        push_shard shards s;
        s)
  in
  { c_name = name; c_key = key; c_shards = shards }

let add c n =
  if !enabled_flag then begin
    let s = Domain.DLS.get c.c_key in
    s.c_count <- s.c_count + n
  end

let incr c = add c 1

let counter_value c =
  List.fold_left
    (fun acc s -> acc + s.c_count)
    0
    (by_domain (fun s -> s.c_domain) (Atomic.get c.c_shards))

(* --- histograms --- *)

let default_buckets =
  [| 1e-5; 3e-5; 1e-4; 3e-4; 1e-3; 3e-3; 1e-2; 3e-2; 0.1; 0.3; 1.0; 3.0; 10.0 |]

type histo_shard = {
  h_domain : int;
  h_counts : int array;  (* per bucket, +inf overflow last *)
  mutable h_sum : float;
  mutable h_n : int;
}

type histogram = {
  h_name : string;
  h_buckets : float array;
  h_key : histo_shard Domain.DLS.key;
  h_shards : histo_shard list Atomic.t;
}

let make_histogram ?(buckets = default_buckets) name =
  Array.iteri
    (fun i b ->
      if i > 0 && b <= buckets.(i - 1) then
        invalid_arg
          (Printf.sprintf "Metrics.histogram %s: buckets must increase" name))
    buckets;
  let shards = Atomic.make [] in
  let n_counts = Array.length buckets + 1 in
  let key =
    Domain.DLS.new_key (fun () ->
        let s =
          {
            h_domain = (Domain.self () :> int);
            h_counts = Array.make n_counts 0;
            h_sum = 0.0;
            h_n = 0;
          }
        in
        push_shard shards s;
        s)
  in
  { h_name = name; h_buckets = Array.copy buckets; h_key = key; h_shards = shards }

let observe h v =
  if !enabled_flag then begin
    let s = Domain.DLS.get h.h_key in
    let buckets = h.h_buckets in
    let n = Array.length buckets in
    let i = ref 0 in
    while !i < n && v > buckets.(!i) do
      Stdlib.incr i
    done;
    s.h_counts.(!i) <- s.h_counts.(!i) + 1;
    s.h_sum <- s.h_sum +. v;
    s.h_n <- s.h_n + 1
  end

let histo_shards h = by_domain (fun s -> s.h_domain) (Atomic.get h.h_shards)

let histogram_counts h =
  let counts = Array.make (Array.length h.h_buckets + 1) 0 in
  List.iter
    (fun s ->
      Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) s.h_counts)
    (histo_shards h);
  counts

let histogram_count h =
  List.fold_left (fun acc s -> acc + s.h_n) 0 (histo_shards h)

let histogram_sum h =
  List.fold_left (fun acc s -> acc +. s.h_sum) 0.0 (histo_shards h)

(* --- registry --- *)

type metric = C of counter | H of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 32
let registry_mu = Mutex.create ()

let valid_name name =
  String.length name > 0
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       name

let register name kind make =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Metrics: bad metric name %S" name);
  Mutex.lock registry_mu;
  let m =
    match Hashtbl.find_opt registry name with
    | Some m -> m
    | None ->
      let m = make () in
      Hashtbl.add registry name m;
      m
  in
  Mutex.unlock registry_mu;
  match kind m with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf "Metrics: %S already registered as another kind" name)

let counter name =
  register name (function C c -> Some c | _ -> None)
    (fun () -> C (make_counter name))

let histogram ?buckets name =
  register name (function H h -> Some h | _ -> None)
    (fun () -> H (make_histogram ?buckets name))

(* --- snapshot and export --- *)

type histo_value = {
  buckets : float array;
  counts : int array;
  sum : float;
  count : int;
}

type value = Counter of int | Histogram of histo_value
type snapshot = (string * value) list

let snapshot () =
  Mutex.lock registry_mu;
  let entries = Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [] in
  Mutex.unlock registry_mu;
  entries
  |> List.map (fun (name, m) ->
         ( name,
           match m with
           | C c -> Counter (counter_value c)
           | H h ->
             Histogram
               {
                 buckets = Array.copy h.h_buckets;
                 counts = histogram_counts h;
                 sum = histogram_sum h;
                 count = histogram_count h;
               } ))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_value (snap : snapshot) =
  let counters =
    List.filter_map
      (function n, Counter c -> Some (n, Json.Int c) | _ -> None)
      snap
  in
  let histograms =
    List.filter_map
      (function
        | n, Histogram h ->
          let buckets =
            Array.to_list
              (Array.mapi
                 (fun i c ->
                   let le =
                     if i < Array.length h.buckets then
                       Json.Float h.buckets.(i)
                     else Json.Str "+Inf"
                   in
                   Json.Obj [ ("le", le); ("count", Json.Int c) ])
                 h.counts)
          in
          Some
            ( n,
              Json.Obj
                [
                  ("count", Json.Int h.count);
                  ("sum", Json.Float h.sum);
                  ("buckets", Json.List buckets);
                ] )
        | _ -> None)
      snap
  in
  Json.Obj
    [
      ("counters", Json.Obj counters);
      ("histograms", Json.Obj histograms);
    ]

let summary_line (snap : snapshot) =
  let parts =
    List.filter_map
      (function
        | name, Counter c when c > 0 -> Some (Printf.sprintf "%s=%d" name c)
        | _ -> None)
      snap
  in
  "metrics: "
  ^ (match parts with [] -> "(no nonzero counters)" | _ -> String.concat " " parts)
