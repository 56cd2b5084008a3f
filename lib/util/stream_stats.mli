(** Allocation-light streaming statistics for population sweeps.

    A wafer-scale sweep visits thousands of dies; retaining a sample
    array per metric per grid cell would make memory grow linearly with
    the die count.  This module accumulates the same figures in O(1)
    space per metric:

    - {!Welford}: mean / unbiased variance / min / max by Welford's
      online update ({!Stats.Running}, the core of {!Stats.summarize}), plus a
      deterministic pairwise {!Welford.merge} (Chan et al.) so per-cell
      accumulators can be combined in a fixed order into wafer totals —
      independent of which pool worker produced them.
    - {!P2}: the P-square quantile estimator of Jain & Chlamtac (CACM
      1985) — five markers per tracked probability, exact for the first
      five observations, O(1) per update thereafter.
    - {!Counter}: dense frequency counts over a small integer range
      (violation-scenario / raised-island histograms). *)

module Welford : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val merge : into:t -> t -> unit
  (** Fold the second accumulator into [into] (Chan's parallel update).
      Deterministic: merging the same accumulators in the same order
      always yields the same bits.  [into] and the source must be
      distinct accumulators; [Invalid_argument] when they are the same
      physical value (a self-merge would double-count silently). *)

  val count : t -> int
  val mean : t -> float
  val variance : t -> float
  (** Unbiased sample variance; 0 for fewer than 2 samples. *)

  val stddev : t -> float
  val min : t -> float
  val max : t -> float

  val ci_halfwidth : ?confidence:float -> t -> float
  (** Normal-theory confidence-interval half-width of the mean,
      [z * sqrt (variance / n)] at the given two-sided [confidence]
      (default 0.95).  [infinity] while fewer than two samples have
      been seen — a sequential stopping rule polling this accessor can
      never fire on a variance guess of 0. *)

  val summary : t -> Stats.summary
  (** Snapshot in the {!Stats.summary} record shape.  Requires at least
      one observation. *)
end

module P2 : sig
  type t

  val create : float -> t
  (** [create p] tracks the [p]-quantile, [0 < p < 1]
      ([Invalid_argument] otherwise). *)

  val add : t -> float -> unit

  val estimate : t -> float
  (** Current quantile estimate: exact (linear interpolation between
      order statistics, as {!Stats.quantile}) while five or fewer
      observations have been seen, the P-square marker estimate
      afterwards.  Requires at least one observation. *)
end

module Counter : sig
  type t

  val create : int -> t
  (** [create n] counts occurrences of values in [0, n-1]; values
      outside the range are clamped into it. *)

  val add : t -> int -> unit
  val total : t -> int
  val to_array : t -> int array
  (** A fresh copy of the per-value counts. *)

  val merge : into:t -> t -> unit
  (** Pointwise sum; the two counters must have the same range. *)
end
