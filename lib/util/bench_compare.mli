(** Perf-regression observatory: compare two [BENCH_ssta.json] files.

    Each kernel line in a schema-2 bench file carries a mean, a CI
    half-width and a sample count, so two runs can be compared
    {e statistically}: a kernel only counts as regressed (or improved)
    when the delta clears both the relative [threshold_pct] and the
    combined CI half-widths — a shift that two noisy runs could
    produce by chance stays "unchanged".

    Kernels present on only one side are reported ([Base_only] /
    [New_only]) but are never regressions — renaming or adding a
    kernel must not fail the gate. *)

type est = { ns : float; ci : float; n : int }
(** Mean ns per run, CI half-width (same unit), sample count. *)

type verdict = Regressed | Improved | Unchanged | Base_only | New_only

type line = {
  name : string;
  base : est option;
  next : est option;
  delta_pct : float option;  (** 100 * (next - base) / base, both sides *)
  verdict : verdict;
}

type report = {
  threshold_pct : float;
  lines : line list;  (** kernel-name order *)
}

val default_threshold_pct : float
(** 2.0 — a delta below ±2% never flags, however tight the CIs. *)

val compare : ?threshold_pct:float -> base:Json.t -> next:Json.t ->
  unit -> (report, string) result
(** [Error] names the file (["base file"] or ["new file"]) and, for a
    malformed kernel, the kernel: every estimate needs a finite ["ns"]
    > 0, a finite ["ci"] >= 0 and an integer ["n"] >= 1 ([ci] and [n]
    default to 0 and 1 when absent).  A [null] kernel is "no estimate"
    and is skipped. *)

val regressions : report -> string list
(** Names of the kernels whose verdict is [Regressed]. *)

val render : report -> string
(** Markdown: a verdict table (base, new, delta, noise bound per
    kernel), a one-line summary and {!single_pair_caveat}. *)

val single_pair_caveat : string
(** The last line of {!render}: a kernel's CI half-width is the spread
    within one bench process, so a single base/new pair flags kernels
    that run unchanged code as regressed or improved; only a verdict
    that holds over alternating base and new runs reads as a change. *)

(** {2 Alternating pairs of end-to-end runs}

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
