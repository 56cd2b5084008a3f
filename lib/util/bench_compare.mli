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
