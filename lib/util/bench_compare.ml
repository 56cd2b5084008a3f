type quartiles = { q1 : float; median : float; q3 : float }
type pair_verdict = Gain | Loss | Unresolved

type pair_stat = {
  metric : string;
  n_pairs : int;
  base_q : quartiles;
  next_q : quartiles;
  wins : int;
  shift : float;
  shift_lo : float;
  shift_hi : float;
  coverage : float;
  pair_verdict : pair_verdict;
}

let quartiles xs =
  {
    q1 = Stats.quantile xs 0.25;
    median = Stats.quantile xs 0.5;
    q3 = Stats.quantile xs 0.75;
  }

(* P(T+ <= c) for c = 0 .. n(n+1)/2, T+ Wilcoxon's signed-rank
   statistic of [n] pairs under a symmetric null: rank [i] joins the
   sum with probability 1/2. *)
let signed_rank_cdf n =
  let m = n * (n + 1) / 2 in
  let p = Array.make (m + 1) 0.0 in
  p.(0) <- 1.0;
  for i = 1 to n do
    for s = m downto 0 do
      p.(s) <- (p.(s) +. if s >= i then p.(s - i) else 0.0) /. 2.0
    done
  done;
  for s = 1 to m do
    p.(s) <- p.(s) +. p.(s - 1)
  done;
  p

let pair_confidence = 0.95

(* The Hodges–Lehmann shift of paired differences, the median of their
   Walsh averages, and its signed-rank interval [W_(k), W_(M+1-k)] with
   the largest [k] whose two tails hold at most 1 - [pair_confidence]
   (k = 1, the whole range, when even that is too wide); the coverage
   is the interval's exact one. *)
let hodges_lehmann d =
  let n = Array.length d in
  let walsh = ref [] in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      walsh := ((d.(i) +. d.(j)) /. 2.0) :: !walsh
    done
  done;
  let w = Array.of_list !walsh in
  Array.sort Float.compare w;
  let m = Array.length w in
  let cdf = signed_rank_cdf n in
  let tail = (1.0 -. pair_confidence) /. 2.0 in
  let k = ref 1 in
  while !k < (m + 1) / 2 && cdf.(!k) <= tail do
    incr k
  done;
  let coverage = 1.0 -. (2.0 *. cdf.(!k - 1)) in
  (Stats.quantile w 0.5, w.(!k - 1), w.(m - !k), coverage)

let pair_stat ~metric ~base ~next =
  let n = Array.length base in
  if n = 0 || Array.length next <> n then
    invalid_arg "Bench_compare.pair_stat: sides must be non-empty and paired";
  let d = Array.mapi (fun i b -> next.(i) -. b) base in
  let wins = Array.fold_left (fun a x -> if x < 0.0 then a + 1 else a) 0 d in
  let losses = Array.fold_left (fun a x -> if x > 0.0 then a + 1 else a) 0 d in
  let shift, shift_lo, shift_hi, coverage = hodges_lehmann d in
  let base_q = quartiles base and next_q = quartiles next in
  let iqr = base_q.q3 -. base_q.q1 in
  let needed = ((9 * n) + 9) / 10 in
  let beyond s = s > iqr && s > 0.0 in
  let pair_verdict =
    if wins >= needed && beyond (-.shift) && beyond (base_q.median -. next_q.median)
    then Gain
    else if losses >= needed && beyond shift && beyond (next_q.median -. base_q.median)
    then Loss
    else Unresolved
  in
  { metric; n_pairs = n; base_q; next_q; wins; shift; shift_lo; shift_hi;
    coverage; pair_verdict }

type run = {
  workload : string;
  seed : int;
  settings : (string * string) list;
  failed : int;
  values : (string * float) list;
}

type pair_error =
  | Bad_record of { file : string; what : string }
  | Workload_mismatch of { file : string; expected : string; got : string }
  | Setting_mismatch of { file : string; setting : string; expected : string; got : string }
  | Missing_metric of { file : string; metric : string }
  | Unpaired of { base : int; next : int }

let pair_error_message = function
  | Bad_record { file; what } -> Printf.sprintf "%s: %s" file what
  | Workload_mismatch { file; expected; got } ->
    Printf.sprintf "%s: workload %S, expected %S" file got expected
  | Setting_mismatch { file; setting; expected; got } ->
    Printf.sprintf "%s: %S is %s, expected %s" file setting got expected
  | Missing_metric { file; metric } ->
    Printf.sprintf "%s: no finite value for metric %S" file metric
  | Unpaired { base; next } ->
    Printf.sprintf "%d base run(s) against %d new run(s): sides must pair up"
      base next

(* The run settings both sides of a comparison must share: the timed
   window, the design size, the traced mode and the pool size. *)
let pair_settings = [ "seconds"; "quick"; "trace"; "domains" ]

(* A perfbench [--json] record: its workload, seed, settings, failed
   ops (those with problems) and each metric's value (a [null] value, a
   non-finite reading, is left out). *)
let run_of_json file j =
  let bad what = Error (Bad_record { file; what }) in
  let ops_failed ops =
    List.fold_left
      (fun acc op ->
        Option.bind acc (fun n ->
            Option.map
              (fun ps -> if ps = [] then n else n + 1)
              (Option.bind (Json.member "problems" op) Json.to_list)))
      (Some 0) ops
  in
  match
    ( Option.bind (Json.member "workload" j) Json.to_str,
      Option.bind (Json.member "seed" j) Json.to_int,
      List.find_opt (fun s -> Json.member s j = None) pair_settings,
      Option.bind (Option.bind (Json.member "ops" j) Json.to_list) ops_failed,
      Option.bind (Json.member "metrics" j) Json.to_obj )
  with
  | None, _, _, _, _ -> bad "no \"workload\" string"
  | _, None, _, _, _ -> bad "no \"seed\" integer"
  | _, _, Some s, _, _ -> bad (Printf.sprintf "no %S setting" s)
  | _, _, _, None, _ -> bad "no \"ops\" list with \"problems\" per op"
  | _, _, _, _, None -> bad "no \"metrics\" object"
  | Some workload, Some seed, None, Some failed, Some ms ->
    let settings =
      List.map
        (fun s -> (s, Json.to_string (Option.get (Json.member s j))))
        pair_settings
    in
    let values =
      List.filter_map
        (fun (name, m) ->
          Option.bind (Json.member "value" m) Json.to_float
          |> Option.map (fun v -> (name, v)))
        ms
    in
    Ok { workload; seed; settings; failed; values }

type pairs_report = {
  p_workload : string;
  seeds : int list;
  base_failed : int;
  next_failed : int;
  stats : pair_stat list;
}

let pairs ~base ~next =
  let ( let* ) = Result.bind in
  let all files =
    List.fold_right
      (fun (file, j) acc ->
        let* l = acc in
        let* r = run_of_json file j in
        Ok ((file, r) :: l))
      files (Ok [])
  in
  let* base_runs = all base in
  let* next_runs = all next in
  match base_runs with
  | [] -> Error (Unpaired { base = 0; next = List.length next_runs })
  | (_, first) :: _ ->
    if List.length next_runs <> List.length base_runs then
      Error (Unpaired { base = List.length base_runs; next = List.length next_runs })
    else
      let runs = base_runs @ next_runs in
      let mismatch (file, r) =
        if r.workload <> first.workload then
          Some (Workload_mismatch { file; expected = first.workload; got = r.workload })
        else
          List.find_map
            (fun (setting, got) ->
              let expected = List.assoc setting first.settings in
              if got = expected then None
              else Some (Setting_mismatch { file; setting; expected; got }))
            r.settings
      in
      let* () = Option.fold ~none:(Ok ()) ~some:Result.error (List.find_map mismatch runs) in
      let failed rs = List.fold_left (fun a (_, r) -> a + r.failed) 0 rs in
      let base_failed = failed base_runs and next_failed = failed next_runs in
      let side metric rs =
        List.fold_right
          (fun (file, r) acc ->
            let* l = acc in
            match List.assoc_opt metric r.values with
            | Some v when Float.is_finite v -> Ok (v :: l)
            | Some _ | None -> Error (Missing_metric { file; metric }))
          rs (Ok [])
        |> Result.map Array.of_list
      in
      let* stats =
        List.fold_right
          (fun (metric, _) acc ->
            let* l = acc in
            let* b = side metric base_runs in
            let* nx = side metric next_runs in
            let s = pair_stat ~metric ~base:b ~next:nx in
            (* A gain does not count while more new ops fail. *)
            let s =
              if s.pair_verdict = Gain && next_failed > base_failed then
                { s with pair_verdict = Unresolved }
              else s
            in
            Ok (s :: l))
          first.values (Ok [])
      in
      Ok
        {
          p_workload = first.workload;
          seeds = List.sort_uniq Int.compare (List.map (fun (_, r) -> r.seed) runs);
          base_failed;
          next_failed;
          stats;
        }

let pair_verdict_label = function
  | Gain -> "**gain**"
  | Loss -> "**LOSS**"
  | Unresolved -> "no change shown"

let render_pairs r =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let n = match r.stats with s :: _ -> s.n_pairs | [] -> 0 in
  add "# Alternating pairs: %s, seed(s) %s, %d pair(s)\n\n" r.p_workload
    (String.concat ", " (List.map string_of_int r.seeds))
    n;
  add "Failed ops: base %d, new %d%s.\n\n" r.base_failed r.next_failed
    (if r.next_failed > r.base_failed then " (more new ops fail: no gain counts)"
     else "");
  add "| metric | base median [q1, q3] | new median [q1, q3] | new wins | \
       shift [%.0f%% CI] | shift %% | verdict |\n"
    (100.0 *. pair_confidence);
  add "|---|---|---|---:|---|---:|---|\n";
  let q x = Printf.sprintf "%.4g [%.4g, %.4g]" x.median x.q1 x.q3 in
  List.iter
    (fun s ->
      add "| %s | %s | %s | %d/%d | %+.4g [%+.4g, %+.4g] (%.1f%%) | %+.1f | %s |\n"
        s.metric (q s.base_q) (q s.next_q) s.wins s.n_pairs s.shift s.shift_lo
        s.shift_hi (100.0 *. s.coverage)
        (100.0 *. s.shift /. s.base_q.median)
        (pair_verdict_label s.pair_verdict))
    r.stats;
  add "\nLower is better.  The shift is the Hodges–Lehmann estimate of \
       new - base over the pairs, with its signed-rank interval and exact \
       coverage.  A gain (loss) needs the new side to win (lose) at least \
       9 in 10 pairs and both the shift and the difference of medians to \
       exceed the base side's interquartile range.\n";
  Buffer.contents buf
