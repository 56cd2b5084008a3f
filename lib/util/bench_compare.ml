type est = { ns : float; ci : float; n : int }
type verdict = Regressed | Improved | Unchanged | Base_only | New_only

type line = {
  name : string;
  base : est option;
  next : est option;
  delta_pct : float option;
  verdict : verdict;
}

type report = { threshold_pct : float; lines : line list }

let default_threshold_pct = 2.0

(* One kernel's estimate: [None] for the bench's [null] (no estimate),
   else a finite mean > 0, a finite CI half-width >= 0 (0 when absent)
   and a sample count >= 1 (1 when absent). *)
let est_of_json name v =
  let field f conv ~absent ~ok ~what =
    match Option.map conv (Json.member f v) with
    | None -> Option.to_result ~none:what absent
    | Some (Some x) when ok x -> Ok x
    | Some _ -> Error what
  in
  let ( let* ) = Result.bind in
  Result.map_error (Printf.sprintf "kernel %S: %s" name)
    (match v with
    | Json.Null -> Ok None
    | Json.Obj _ ->
      let* ns =
        field "ns" Json.to_float ~absent:None
          ~ok:(fun x -> Float.is_finite x && x > 0.0)
          ~what:"\"ns\" is not a finite number > 0"
      in
      let* ci =
        field "ci" Json.to_float ~absent:(Some 0.0)
          ~ok:(fun x -> Float.is_finite x && x >= 0.0)
          ~what:"\"ci\" is not a finite number >= 0"
      in
      let* n =
        field "n" Json.to_int ~absent:(Some 1) ~ok:(fun n -> n >= 1)
          ~what:"\"n\" is not an integer >= 1"
      in
      Ok (Some { ns; ci; n })
    | _ -> Error "not an estimate object or null")

(* Kernel estimates of one bench file's [.kernels]; kernels with a null
   estimate are skipped, and the first malformed one is the error. *)
let kernels_of_json j =
  match Option.bind (Json.member "kernels" j) Json.to_obj with
  | None -> Error "no \"kernels\" section"
  | Some fields ->
    List.fold_left
      (fun acc (k, v) ->
        Result.bind acc (fun l ->
            Result.map
              (function None -> l | Some e -> (k, e) :: l)
              (est_of_json k v)))
      (Ok []) fields
    |> Result.map List.rev

let classify ~threshold_pct base next =
  let delta = next.ns -. base.ns in
  let pct = 100.0 *. delta /. base.ns in
  let noise = base.ci +. next.ci in
  let verdict =
    if delta > noise && pct > threshold_pct then Regressed
    else if -.delta > noise && -.pct > threshold_pct then Improved
    else Unchanged
  in
  (pct, verdict)

let compare ?(threshold_pct = default_threshold_pct) ~base ~next () =
  match (kernels_of_json base, kernels_of_json next) with
  | Error e, _ -> Error ("base file: " ^ e)
  | _, Error e -> Error ("new file: " ^ e)
  | Ok base_k, Ok next_k ->
    let names =
      List.sort_uniq String.compare (List.map fst base_k @ List.map fst next_k)
    in
    let lines =
      List.map
        (fun name ->
          let b = List.assoc_opt name base_k in
          let nx = List.assoc_opt name next_k in
          match (b, nx) with
          | Some b, Some nx ->
            let pct, verdict = classify ~threshold_pct b nx in
            { name; base = Some b; next = Some nx;
              delta_pct = Some pct; verdict }
          | Some _, None ->
            { name; base = b; next = None; delta_pct = None;
              verdict = Base_only }
          | None, Some _ ->
            { name; base = None; next = nx; delta_pct = None;
              verdict = New_only }
          | None, None -> assert false)
        names
    in
    Ok { threshold_pct; lines }

let regressions r =
  List.filter_map
    (fun l -> if l.verdict = Regressed then Some l.name else None)
    r.lines

let verdict_label = function
  | Regressed -> "**REGRESSED**"
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Base_only -> "base only"
  | New_only -> "new only"

let pp_est = function
  | None -> "-"
  | Some e ->
    if e.ci > 0.0 then Printf.sprintf "%.0f ± %.0f (n=%d)" e.ns e.ci e.n
    else Printf.sprintf "%.0f" e.ns

let single_pair_caveat =
  "Each noise bound is the spread within one process, far below the \
   spread between processes: one base/new pair cannot tell a change from \
   noise; read a verdict as a change only if it holds over alternating \
   base and new runs."

let render r =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "# Bench comparison (threshold ±%.1f%%, CI-gated)\n\n" r.threshold_pct;
  add "| kernel | base ns | new ns | Δ%% | noise ns | verdict |\n";
  add "|---|---:|---:|---:|---:|---|\n";
  List.iter
    (fun l ->
      let noise =
        match (l.base, l.next) with
        | Some b, Some n -> Printf.sprintf "%.0f" (b.ci +. n.ci)
        | _ -> "-"
      in
      add "| %s | %s | %s | %s | %s | %s |\n" l.name (pp_est l.base)
        (pp_est l.next)
        (match l.delta_pct with
        | Some p -> Printf.sprintf "%+.1f" p
        | None -> "-")
        noise (verdict_label l.verdict))
    r.lines;
  let count v = List.length (List.filter (fun l -> l.verdict = v) r.lines) in
  let one_sided = count Base_only + count New_only in
  add "\n%d regressed, %d improved, %d unchanged%s.\n" (count Regressed)
    (count Improved) (count Unchanged)
    (if one_sided > 0 then
       Printf.sprintf ", %d present on one side only" one_sided
     else "");
  add "%s\n" single_pair_caveat;
  Buffer.contents buf
