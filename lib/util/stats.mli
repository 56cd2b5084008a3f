(** Descriptive statistics over float samples. *)

(** Welford's numerically stable online update: the one accumulator
    core, behind {!summarize} and {!Stream_stats.Welford} (which adds
    merging and confidence intervals). *)
module Running : sig
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;  (** sum of squared deviations from [mean] *)
    mutable min : float;
    mutable max : float;
  }

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val variance : t -> float
  (** Unbiased sample variance; 0 for fewer than 2 samples. *)

  val stddev : t -> float
  val min : t -> float
  val max : t -> float
end

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

val summarize : float array -> summary
(** One-pass summary of a non-empty sample. *)

val mean : float array -> float
val stddev : float array -> float
(** Unbiased sample standard deviation. *)

val quantile : float array -> float -> float
(** [quantile xs p] for p in [0,1]; linear interpolation between order
    statistics.  Sorts a copy; the input is not modified. *)

val three_sigma : summary -> float
(** [mean + 3*stddev], the paper's worst-case figure of merit. *)
