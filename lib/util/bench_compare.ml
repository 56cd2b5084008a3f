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

let est_of_json = function
  | Json.Obj _ as o -> (
    match Option.bind (Json.member "ns" o) Json.to_float with
    | None -> None
    | Some ns ->
      let ci =
        Option.value ~default:0.0
          (Option.bind (Json.member "ci" o) Json.to_float)
      in
      let n =
        Option.value ~default:1
          (Option.bind (Json.member "n" o) Json.to_int)
      in
      Some { ns; ci; n })
  | _ -> None

(* Kernel estimates of one bench file's [.kernels]; kernels with a null
   estimate are skipped. *)
let kernels_of_json j =
  match Option.bind (Json.member "kernels" j) Json.to_obj with
  | Some fields ->
    Ok (List.filter_map (fun (k, v) -> Option.map (fun e -> (k, e)) (est_of_json v)) fields)
  | None -> Error "no \"kernels\" section"

let classify ~threshold_pct base next =
  let delta = next.ns -. base.ns in
  let pct = if base.ns > 0.0 then 100.0 *. delta /. base.ns else 0.0 in
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
