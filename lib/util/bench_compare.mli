(** The perf-regression verdict: alternating pairs of end-to-end runs.

    The verdict for a perf claim on the perfbench workloads, where one
    run of the same code can move by a third: [n] base/new pairs run
    alternately, and a change counts only if the new side wins nearly
    every pair and moves the median beyond the base side's spread.
    Every metric is lower-is-better, as all of perfbench's end-to-end
    metrics are. *)

type quartiles = { q1 : float; median : float; q3 : float }

type pair_verdict =
  | Gain        (** new wins >= 9 in 10 pairs, shift beyond the base IQR *)
  | Loss        (** the same rule the other way *)
  | Unresolved

type pair_stat = {
  metric : string;
  n_pairs : int;
  base_q : quartiles;
  next_q : quartiles;
  wins : int;      (** pairs where new < base *)
  shift : float;   (** Hodges–Lehmann estimate of new - base *)
  shift_lo : float;
  shift_hi : float;  (** the shift's signed-rank confidence interval *)
  coverage : float;  (** its exact coverage, nominally 95% *)
  pair_verdict : pair_verdict;
}

val pair_stat : metric:string -> base:float array -> next:float array -> pair_stat
(** [pair_stat ~metric ~base ~next] over the pairs [(base.(i),
    next.(i))].  The shift is the median of the Walsh averages of the
    differences [next.(i) - base.(i)]; its interval is the
    distribution-free one of Wilcoxon's signed-rank test (the widest
    order statistics of the Walsh averages whose two tails hold at most
    5%; with five or fewer pairs, the whole range at its lower
    coverage).  [Gain] needs at least [ceil (0.9 n)] wins and both the
    shift and the difference of medians below minus the base side's
    interquartile range (and strictly nonzero); [Loss] the mirror.
    [Invalid_argument] unless the sides are non-empty and of one
    length. *)

type pair_error =
  | Bad_record of { file : string; what : string }
  | Workload_mismatch of { file : string; expected : string; got : string }
  | Setting_mismatch of { file : string; setting : string; expected : string; got : string }
      (** a run setting differs from the first base record's *)
  | Missing_metric of { file : string; metric : string }
  | Unpaired of { base : int; next : int }

val pair_error_message : pair_error -> string

type pairs_report = {
  p_workload : string;
  seeds : int list;  (** every run's seed, sorted, without repeats *)
  base_failed : int;  (** ops with problems, over the base side's runs *)
  next_failed : int;
  stats : pair_stat list;  (** in the first base record's metric order *)
}

val pairs :
  base:(string * Json.t) list ->
  next:(string * Json.t) list ->
  (pairs_report, pair_error) result
(** [pairs ~base ~next]: [(file, record)] lists of perfbench
    [--json FILE] records, paired in order.  Every record must name the
    same workload and run settings ([seconds], [quick], [trace],
    [domains]) and list its ops with their [problems], and each metric
    of the first base record must have a finite value in every record.
    No metric is a [Gain] when more new ops than base ops have
    problems. *)

val render_pairs : pairs_report -> string
(** Markdown: one row per metric — each side's median and quartiles,
    the wins, the shift with its interval and coverage, the shift in
    percent of the base median, the verdict — under a header naming
    the workload, the seeds and the pair count. *)
