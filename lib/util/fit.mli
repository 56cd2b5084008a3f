(** Normal-distribution fitting with a chi-square goodness-of-fit test,
    reproducing the paper's §4.3 validation step: "experimental data from
    the Monte Carlo analysis were then fitted to a normal distribution
    through a chi-square goodness-of-fit test with a confidence level of
    95%". *)

type normal = { mu : float; sigma : float }

type gof = {
  statistic : float;  (** Pearson chi-square statistic. *)
  dof : int;          (** bins - 1 - 2 estimated parameters. *)
  critical : float;   (** Upper critical value at the given confidence. *)
  p_value : float;
  accepted : bool;    (** statistic <= critical. *)
}

val min_samples : int
(** The smallest sample {!fit_and_test} tests: 8. *)

val fit_and_test : float array -> normal * gof
(** Maximum-likelihood normal fit (sample mean / unbiased stddev), then
    a Pearson test of the sample against it at 95% confidence.  Bins
    with expected count below 5 are merged into their neighbours, as is
    standard practice.  [Invalid_argument] below {!min_samples}
    samples. *)
