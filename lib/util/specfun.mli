(** Special functions used by the statistical machinery.

    Accuracy targets are those of the classical Numerical-Recipes-style
    expansions (relative error well under 1e-7 over the ranges exercised
    by the SSTA engine), which is far tighter than the Monte Carlo noise
    floor of any experiment in the paper. *)

val erf : float -> float
(** Error function. *)

val normal_cdf : mu:float -> sigma:float -> float -> float
(** CDF of the normal distribution with mean [mu] and std [sigma]. *)

val normal_quantile : mu:float -> sigma:float -> float -> float
(** Inverse CDF (Acklam's rational approximation, |rel err| < 1.15e-9). *)

val ln_gamma : float -> float
(** Natural log of the Gamma function (Lanczos). *)

val gamma_p : float -> float -> float
(** [gamma_p a x] is the regularized lower incomplete gamma P(a, x). *)

val gamma_q : float -> float -> float
(** [gamma_q a x] = 1 - P(a, x). *)

val chi2_cdf : dof:int -> float -> float
(** CDF of the chi-square distribution with [dof] degrees of freedom. *)

val chi2_critical : dof:int -> alpha:float -> float
(** [chi2_critical ~dof ~alpha] is the upper-[alpha] critical value:
    the x such that 1 - CDF(x) = alpha.  Used for goodness-of-fit
    acceptance at the paper's 95% confidence level. *)
