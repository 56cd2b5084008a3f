type normal = { mu : float; sigma : float }

type gof = {
  statistic : float;
  dof : int;
  critical : float;
  p_value : float;
  accepted : bool;
}

(* Maximum-likelihood normal fit (sample mean / unbiased stddev). *)
let fit_normal xs =
  let s = Stats.summarize xs in
  { mu = s.Stats.mean; sigma = s.Stats.stddev }

let min_samples = 8

(* Pearson test of the sample against the fitted normal at 95%
   confidence.  Build equiprobable-ish bins from the sample range, then
   merge bins whose expected count under the fitted normal is below 5.
   [Invalid_argument] below [min_samples] samples. *)
let chi2_gof xs normal =
  let n = Array.length xs in
  if n < min_samples then
    invalid_arg
      (Printf.sprintf "Fit.chi2_gof: %d samples, at least %d needed" n
         min_samples);
  let h = Histo.of_samples xs in
  let nb = Histo.bins h in
  let expected_of_bin i =
    let c = Histo.bin_center h i in
    let w = Histo.bin_width h in
    let cdf x = Specfun.normal_cdf ~mu:normal.mu ~sigma:(max normal.sigma 1e-12) x in
    float_of_int n *. (cdf (c +. (w /. 2.0)) -. cdf (c -. (w /. 2.0)))
  in
  (* Merge adjacent bins until every merged bin has expected >= 5. *)
  let observed = ref [] and expected = ref [] in
  let acc_o = ref 0 and acc_e = ref 0.0 in
  for i = 0 to nb - 1 do
    acc_o := !acc_o + Histo.bin_count h i;
    acc_e := !acc_e +. expected_of_bin i;
    if !acc_e >= 5.0 then begin
      observed := !acc_o :: !observed;
      expected := !acc_e :: !expected;
      acc_o := 0;
      acc_e := 0.0
    end
  done;
  (* Fold any leftover tail into the last emitted bin. *)
  (match (!observed, !expected) with
  | o :: os, e :: es when !acc_e > 0.0 || !acc_o > 0 ->
    observed := (o + !acc_o) :: os;
    expected := (e +. !acc_e) :: es
  | _ -> ());
  let observed = Array.of_list (List.rev !observed) in
  let expected = Array.of_list (List.rev !expected) in
  let k = Array.length observed in
  let statistic = ref 0.0 in
  for i = 0 to k - 1 do
    let d = float_of_int observed.(i) -. expected.(i) in
    statistic := !statistic +. (d *. d /. max expected.(i) 1e-12)
  done;
  let dof = max 1 (k - 1 - 2) in
  let alpha = 1.0 -. 0.95 in
  let critical = Specfun.chi2_critical ~dof ~alpha in
  let p_value = 1.0 -. Specfun.chi2_cdf ~dof !statistic in
  { statistic = !statistic; dof; critical; p_value; accepted = !statistic <= critical }

let fit_and_test xs =
  let normal = fit_normal xs in
  (normal, chi2_gof xs normal)
