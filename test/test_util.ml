(* Tests for Pvtol_util: PRNG, statistics, special functions, fitting,
   histograms, geometry, tables. *)

module Srng = Pvtol_util.Srng
module Pool = Pvtol_util.Pool
module Stats = Pvtol_util.Stats
module Welford = Pvtol_util.Stream_stats.Welford
module Specfun = Pvtol_util.Specfun
module Fit = Pvtol_util.Fit
module Histo = Pvtol_util.Histo
module Geom = Pvtol_util.Geom
module Table = Pvtol_util.Table

let approx ?(eps = 1e-6) a b = Float.abs (a -. b) <= eps

let check_approx ?(eps = 1e-6) msg expected actual =
  if not (approx ~eps expected actual) then
    Alcotest.failf "%s: expected %.9g, got %.9g" msg expected actual

(* --- Srng --- *)

let test_srng_deterministic () =
  let a = Srng.create 42 and b = Srng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Srng.bits64 a) (Srng.bits64 b)
  done

let test_srng_copy () =
  let a = Srng.create 7 in
  ignore (Srng.bits64 a);
  let b = Srng.copy a in
  Alcotest.(check int64) "copy continues identically" (Srng.bits64 a) (Srng.bits64 b)

let test_srng_uniform_range () =
  let g = Srng.create 1 in
  for _ = 1 to 10_000 do
    let u = Srng.uniform g in
    if u < 0.0 || u >= 1.0 then Alcotest.failf "uniform out of range: %f" u
  done

let test_srng_int_range () =
  let g = Srng.create 2 in
  let seen = Array.make 7 0 in
  for _ = 1 to 7_000 do
    let v = Srng.int g 7 in
    if v < 0 || v >= 7 then Alcotest.failf "int out of range: %d" v;
    seen.(v) <- seen.(v) + 1
  done;
  Array.iteri
    (fun i n -> if n < 700 then Alcotest.failf "bucket %d suspiciously rare: %d" i n)
    seen

let test_srng_gaussian_moments () =
  let g = Srng.create 3 in
  let acc = Welford.create () in
  for _ = 1 to 50_000 do
    Welford.add acc (Srng.gaussian g)
  done;
  check_approx ~eps:0.03 "gaussian mean" 0.0 (Welford.mean acc);
  check_approx ~eps:0.03 "gaussian stddev" 1.0 (Welford.stddev acc)

let test_srng_jump () =
  (* jump n == discarding n raw draws. *)
  let a = Srng.create 23 and b = Srng.create 23 in
  for _ = 1 to 17 do
    ignore (Srng.bits64 a)
  done;
  Srng.jump b 17;
  Alcotest.(check int64) "jump matches drawn stream" (Srng.bits64 a) (Srng.bits64 b);
  (* jump 0 clears the Box-Muller cache but leaves the raw stream. *)
  let c = Srng.create 5 and d = Srng.create 5 in
  ignore (Srng.gaussian c);
  (* c holds a cached half *)
  Srng.jump c 0;
  Srng.jump d 2;
  (* d skipped the same pair of uniforms *)
  Alcotest.(check int64) "cache dropped" (Srng.bits64 c) (Srng.bits64 d)

let test_srng_fill_gaussians () =
  (* Bulk fill is bit-identical to successive [gaussian] calls for any
     alignment of the Box-Muller pair cache: even/odd lengths, a
     pre-existing cached half, and segmented fills. *)
  let check label ~warmup lens =
    let total = List.fold_left ( + ) 0 lens in
    let a = Srng.create 41 and b = Srng.create 41 in
    if warmup then (
      ignore (Srng.gaussian a);
      ignore (Srng.gaussian b));
    let expect = Array.init total (fun _ -> Srng.gaussian a) in
    let got = Array.make total nan in
    let pos = ref 0 in
    List.iter
      (fun len ->
        Srng.fill_gaussians b got ~pos:!pos ~len;
        pos := !pos + len)
      lens;
    for i = 0 to total - 1 do
      if got.(i) <> expect.(i) then
        Alcotest.failf "%s: draw %d differs (%h vs %h)" label i got.(i)
          expect.(i)
    done;
    (* And the two generators leave the stream in the same state. *)
    Alcotest.(check int64)
      (label ^ ": stream state") (Srng.bits64 a) (Srng.bits64 b)
  in
  check "even" ~warmup:false [ 64 ];
  check "odd" ~warmup:false [ 63 ];
  check "cached half" ~warmup:true [ 64 ];
  check "cached half, odd" ~warmup:true [ 7 ];
  check "segmented" ~warmup:false [ 5; 1; 12; 0; 9 ];
  check "single" ~warmup:true [ 1 ]

let test_srng_split_diverges () =
  let a = Srng.create 11 in
  let b = Srng.split a in
  let equal = ref 0 in
  for _ = 1 to 64 do
    if Srng.bits64 a = Srng.bits64 b then incr equal
  done;
  Alcotest.(check int) "split streams differ" 0 !equal

let test_srng_shuffle_permutation () =
  let g = Srng.create 5 in
  let a = Array.init 100 (fun i -> i) in
  Srng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 100 (fun i -> i)) sorted

(* --- Stats --- *)

let test_stats_known () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  let s = Stats.summarize xs in
  check_approx "mean" 5.0 s.Stats.mean;
  (* Unbiased sample variance of this classic set is 32/7. *)
  check_approx "stddev" (sqrt (32.0 /. 7.0)) s.Stats.stddev;
  check_approx "min" 2.0 s.Stats.min;
  check_approx "max" 9.0 s.Stats.max

let test_stats_welford_matches_direct () =
  let g = Srng.create 9 in
  let xs = Array.init 1000 (fun _ -> Srng.uniform g *. 100.0) in
  let s = Stats.summarize xs in
  let mean = Array.fold_left ( +. ) 0.0 xs /. 1000.0 in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs /. 999.0
  in
  check_approx ~eps:1e-9 "welford mean" mean s.Stats.mean;
  check_approx ~eps:1e-7 "welford stddev" (sqrt var) s.Stats.stddev

let test_welford_ci_halfwidth () =
  let module W = Pvtol_util.Stream_stats.Welford in
  let w = W.create () in
  Alcotest.(check bool) "empty is infinite" true (W.ci_halfwidth w = infinity);
  W.add w 3.0;
  (* One sample has no variance estimate: the n<2 guard must keep a
     stopping rule from firing on a variance guess of 0. *)
  Alcotest.(check bool) "single sample is infinite" true
    (W.ci_halfwidth w = infinity);
  let g = Srng.create 11 in
  let w = W.create () in
  for _ = 1 to 400 do
    W.add w (Srng.gaussian g)
  done;
  let expect conf =
    Pvtol_util.Specfun.normal_quantile ~mu:0.0 ~sigma:1.0
      ((1.0 +. conf) /. 2.0)
    *. sqrt (W.variance w /. 400.0)
  in
  check_approx ~eps:1e-12 "default is 95%" (expect 0.95) (W.ci_halfwidth w);
  check_approx ~eps:1e-12 "99% widens"
    (expect 0.99)
    (W.ci_halfwidth ~confidence:0.99 w);
  Alcotest.(check bool) "confidence monotone" true
    (W.ci_halfwidth ~confidence:0.99 w > W.ci_halfwidth ~confidence:0.9 w);
  Alcotest.check_raises "confidence 0 rejected"
    (Invalid_argument
       "Stream_stats.Welford.ci_halfwidth: confidence must be in (0, 1)")
    (fun () -> ignore (W.ci_halfwidth ~confidence:0.0 w));
  Alcotest.check_raises "confidence 1 rejected"
    (Invalid_argument
       "Stream_stats.Welford.ci_halfwidth: confidence must be in (0, 1)")
    (fun () -> ignore (W.ci_halfwidth ~confidence:1.0 w))

let test_welford_merge_self_guard () =
  let module W = Pvtol_util.Stream_stats.Welford in
  let w = W.create () in
  W.add w 1.0;
  W.add w 2.0;
  Alcotest.check_raises "self-merge rejected"
    (Invalid_argument
       "Stream_stats.Welford.merge: accumulator merged into itself")
    (fun () -> W.merge ~into:w w);
  (* The guard is physical equality: merging an equal-valued but
     distinct accumulator is legitimate. *)
  let w2 = W.create () in
  W.add w2 1.0;
  W.add w2 2.0;
  W.merge ~into:w w2;
  Alcotest.(check int) "distinct twin merges" 4 (W.count w)

let test_stats_quantile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_approx "median" 3.0 (Stats.quantile xs 0.5);
  check_approx "min quantile" 1.0 (Stats.quantile xs 0.0);
  check_approx "max quantile" 5.0 (Stats.quantile xs 1.0);
  check_approx "interpolated" 1.5 (Stats.quantile xs 0.125)

let test_three_sigma () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0 |] in
  check_approx "3 sigma" (s.Stats.mean +. (3.0 *. s.Stats.stddev)) (Stats.three_sigma s)

(* --- Specfun --- *)

let test_erf_values () =
  check_approx ~eps:1e-6 "erf 0" 0.0 (Specfun.erf 0.0);
  check_approx ~eps:1e-6 "erf 1" 0.8427007929 (Specfun.erf 1.0);
  check_approx ~eps:1e-6 "erf -1" (-0.8427007929) (Specfun.erf (-1.0));
  check_approx ~eps:1e-6 "erf 2" 0.9953222650 (Specfun.erf 2.0)

let test_normal_cdf () =
  check_approx ~eps:1e-7 "cdf at mean" 0.5 (Specfun.normal_cdf ~mu:3.0 ~sigma:2.0 3.0);
  check_approx ~eps:1e-6 "cdf +1 sigma" 0.8413447461
    (Specfun.normal_cdf ~mu:0.0 ~sigma:1.0 1.0);
  check_approx ~eps:1e-6 "cdf 3 sigma" 0.9986501020
    (Specfun.normal_cdf ~mu:0.0 ~sigma:1.0 3.0)

let test_normal_quantile_inverts_cdf () =
  List.iter
    (fun p ->
      let x = Specfun.normal_quantile ~mu:1.0 ~sigma:2.5 p in
      check_approx ~eps:1e-6 "quantile inverts cdf" p
        (Specfun.normal_cdf ~mu:1.0 ~sigma:2.5 x))
    [ 0.001; 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 0.999 ]

let test_chi2 () =
  (* Known critical values at alpha = 0.05. *)
  check_approx ~eps:0.01 "chi2 crit dof 1" 3.841 (Specfun.chi2_critical ~dof:1 ~alpha:0.05);
  check_approx ~eps:0.01 "chi2 crit dof 5" 11.070 (Specfun.chi2_critical ~dof:5 ~alpha:0.05);
  check_approx ~eps:0.01 "chi2 crit dof 10" 18.307
    (Specfun.chi2_critical ~dof:10 ~alpha:0.05);
  check_approx ~eps:1e-6 "chi2 cdf at 0" 0.0 (Specfun.chi2_cdf ~dof:3 0.0);
  (* chi2 with dof 2 is Exp(1/2): CDF(x) = 1 - exp(-x/2). *)
  check_approx ~eps:1e-7 "chi2 dof 2 closed form" (1.0 -. exp (-1.5))
    (Specfun.chi2_cdf ~dof:2 3.0)

let test_gamma_identities () =
  (* ln Gamma(n) = ln (n-1)! *)
  check_approx ~eps:1e-9 "lngamma 5" (log 24.0) (Specfun.ln_gamma 5.0);
  check_approx ~eps:1e-9 "lngamma 1" 0.0 (Specfun.ln_gamma 1.0);
  check_approx ~eps:1e-7 "P + Q = 1" 1.0
    (Specfun.gamma_p 2.5 1.7 +. Specfun.gamma_q 2.5 1.7)

(* --- Fit --- *)

let test_fit_gaussian_accepted () =
  let g = Srng.create 21 in
  let xs = Array.init 2000 (fun _ -> 10.0 +. (2.0 *. Srng.gaussian g)) in
  let normal, gof = Fit.fit_and_test xs in
  check_approx ~eps:0.15 "fit mu" 10.0 normal.Fit.mu;
  check_approx ~eps:0.15 "fit sigma" 2.0 normal.Fit.sigma;
  Alcotest.(check bool) "gaussian sample accepted" true gof.Fit.accepted

let test_fit_uniform_rejected () =
  let g = Srng.create 22 in
  let xs = Array.init 4000 (fun _ -> Srng.uniform g) in
  let _, gof = Fit.fit_and_test xs in
  Alcotest.(check bool) "uniform sample rejected as normal" false gof.Fit.accepted

(* --- Histo --- *)

let test_histo_counts () =
  let h = Histo.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  List.iter (Histo.add h) [ 0.5; 1.5; 1.6; 9.9; -5.0; 15.0 ];
  Alcotest.(check int) "total" 6 (Histo.count h);
  Alcotest.(check int) "bin 0 gets clamped low too" 2 (Histo.bin_count h 0);
  Alcotest.(check int) "bin 1" 2 (Histo.bin_count h 1);
  Alcotest.(check int) "last bin gets clamped high too" 2 (Histo.bin_count h 9)

let test_histo_density_integrates_to_one () =
  let g = Srng.create 30 in
  let xs = Array.init 500 (fun _ -> Srng.gaussian g) in
  let h = Histo.of_samples ~bins:16 xs in
  let integral = ref 0.0 in
  for i = 0 to Histo.bins h - 1 do
    integral := !integral +. (Histo.density h i *. Histo.bin_width h)
  done;
  check_approx ~eps:1e-9 "density integrates to 1" 1.0 !integral

(* --- Geom --- *)

let test_geom_basics () =
  let r = Geom.rect ~llx:0.0 ~lly:0.0 ~urx:4.0 ~ury:2.0 in
  check_approx "area" 8.0 (Geom.area r);
  Alcotest.(check bool) "contains inside" true (Geom.contains r (Geom.point 1.0 1.0));
  Alcotest.(check bool) "lower edge closed" true (Geom.contains r (Geom.point 0.0 0.0));
  Alcotest.(check bool) "upper edge open" false (Geom.contains r (Geom.point 4.0 1.0));
  Alcotest.(check bool) "subsumes" true
    (Geom.subsumes (Geom.rect ~llx:(-1.0) ~lly:(-1.0) ~urx:5.0 ~ury:3.0) r)

let test_geom_partition_property =
  QCheck.Test.make ~name:"half-split assigns each point to exactly one side"
    ~count:200
    QCheck.(triple (float_range 0.0 10.0) (float_range 0.0 10.0) (float_range 0.1 9.9))
    (fun (x, y, cut) ->
      let left = Geom.rect ~llx:0.0 ~lly:0.0 ~urx:cut ~ury:10.0 in
      let right = Geom.rect ~llx:cut ~lly:0.0 ~urx:10.0 ~ury:10.0 in
      let p = Geom.point x y in
      let in_left = Geom.contains left p and in_right = Geom.contains right p in
      (* Inside the union, membership is exclusive. *)
      (not (in_left && in_right)) && (in_left || in_right))

(* --- Table --- *)

let test_table_render () =
  let t = Table.create ~header:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let out = Table.render t in
  Alcotest.(check bool) "mentions header" true
    (String.length out > 0 && String.sub out 1 4 = "name");
  Alcotest.(check bool) "contains separator" true (String.contains out '+');
  Alcotest.(check string) "fcell" "3.142" (Table.fcell ~decimals:3 3.14159);
  Alcotest.(check string) "pcell" "8.35%" (Table.pcell 0.0835)

let qcheck = QCheck_alcotest.to_alcotest

let test_srng_create_after_property =
  (* [create_after] equals a serial replay bit for bit: [chips] blocks
     of one uniform and [n] gaussians each, the uniform drawn before or
     after the block's gaussians (always before in the last block, so
     an odd total ends on a gaussian), the gaussians split at random
     between [gaussian] calls and [fill_gaussians] runs.  Odd [n] puts
     the cached Box-Muller half across block boundaries. *)
  QCheck.Test.make ~name:"srng create_after = serial replay" ~count:300
    QCheck.(quad (int_bound 1_000_000) (int_range 0 9) (int_range 0 12)
              (int_bound 1_000_000))
    (fun (seed, n, chips, layout) ->
      let pick = Srng.create layout in
      let g = Srng.create seed in
      let buf = Array.make (max n 1) 0.0 in
      let gaussians () =
        let left = ref n in
        while !left > 0 do
          if Srng.int pick 2 = 0 then begin
            ignore (Srng.gaussian g);
            decr left
          end
          else begin
            let len = 1 + Srng.int pick !left in
            Srng.fill_gaussians g buf ~pos:0 ~len;
            left := !left - len
          end
        done
      in
      for chip = 0 to chips - 1 do
        if chip < chips - 1 && Srng.int pick 2 = 0 then begin
          gaussians ();
          ignore (Srng.uniform g)
        end
        else begin
          ignore (Srng.uniform g);
          gaussians ()
        end
      done;
      let h = Srng.create_after ~uniforms:chips ~gaussians:(chips * n) seed in
      Marshal.(to_string g [ No_sharing ] = to_string h [ No_sharing ])
      && Srng.gaussian g = Srng.gaussian h
      && Srng.bits64 g = Srng.bits64 h)

(* --- Pool --- *)

let with_pool ~domains f =
  let p = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

let test_pool_ordering () =
  (* Results land in chunk order whatever the domain count. *)
  let expected = Array.init 53 (fun c -> c * c) in
  List.iter
    (fun domains ->
      with_pool ~domains (fun p ->
          let got =
            Pool.parallel_chunks p ~chunks:53
              ~init:(fun ~worker -> worker)
              ~f:(fun _ c -> c * c)
          in
          Alcotest.(check (array int))
            (Printf.sprintf "ordered with %d domains" domains)
            expected got))
    [ 1; 2; 4 ]

let test_pool_exception () =
  with_pool ~domains:4 (fun p ->
      (try
         ignore
           (Pool.parallel_chunks p ~chunks:20
              ~init:(fun ~worker:_ -> ())
              ~f:(fun () c -> if c = 7 || c = 13 then failwith "chunk boom" else c));
         Alcotest.fail "expected exception"
       with Failure m -> Alcotest.(check string) "propagated" "chunk boom" m);
      (* The pool survives a failing job. *)
      let got =
        Pool.parallel_chunks p ~chunks:5
          ~init:(fun ~worker:_ -> ())
          ~f:(fun () c -> c)
      in
      Alcotest.(check (array int)) "pool reusable" [| 0; 1; 2; 3; 4 |] got)

let test_pool_nested () =
  (* A task that fans out again must not deadlock: the nested call runs
     serially inside the worker and still returns ordered results. *)
  with_pool ~domains:4 (fun p ->
      let got =
        Pool.parallel_chunks p ~chunks:6
          ~init:(fun ~worker:_ -> ())
          ~f:(fun () c ->
            let inner =
              Pool.parallel_chunks p ~chunks:4
                ~init:(fun ~worker:_ -> ())
                ~f:(fun () i -> (10 * c) + i)
            in
            Array.fold_left ( + ) 0 inner)
      in
      Alcotest.(check (array int))
        "nested results"
        (Array.init 6 (fun c -> (40 * c) + 6))
        got)

let test_pool_worker_state () =
  (* init runs once per participating domain; workers reuse their state
     across chunks (counts sum to the chunk total). *)
  with_pool ~domains:3 (fun p ->
      let counters =
        Pool.parallel_chunks p ~chunks:40
          ~init:(fun ~worker:_ -> ref 0)
          ~f:(fun r _ ->
            incr r;
            r)
      in
      let distinct =
        Array.fold_left
          (fun acc r -> if List.memq r acc then acc else r :: acc)
          [] counters
      in
      Alcotest.(check bool) "few distinct states" true (List.length distinct <= 3);
      let total = List.fold_left (fun acc r -> acc + !r) 0 distinct in
      Alcotest.(check int) "all chunks counted" 40 total)

let test_pool_default_count () =
  Alcotest.(check bool) "default domain count positive" true
    (Pool.default_domain_count () >= 1)

let test_pool_env_parsing () =
  (* Unix.putenv mutates the process environment, which is what
     Sys.getenv_opt reads.  Restore the previous value afterwards; an
     unset variable comes back as "" ([Unix] has no unsetenv), which
     the pool reads as unset. *)
  let old = Sys.getenv_opt "PVTOL_DOMAINS" in
  let restore () = Unix.putenv "PVTOL_DOMAINS" (Option.value ~default:"" old) in
  Fun.protect ~finally:restore (fun () ->
      let hw = max 1 (Domain.recommended_domain_count ()) in
      let with_env v = Unix.putenv "PVTOL_DOMAINS" v; Pool.default_domain_count () in
      Alcotest.(check int) "valid value honoured" 3 (with_env "3");
      Alcotest.(check int) "whitespace trimmed" 2 (with_env " 2 ");
      Alcotest.(check int) "clamped to 64" 64 (with_env "1000");
      (* Malformed values fall back to the hardware default. *)
      Alcotest.(check int) "non-numeric ignored" hw (with_env "lots");
      Alcotest.(check int) "zero ignored" hw (with_env "0");
      Alcotest.(check int) "negative ignored" hw (with_env "-4");
      Alcotest.(check int) "empty ignored" hw (with_env ""))

let suite =
  ( "util",
    [
      Alcotest.test_case "srng deterministic" `Quick test_srng_deterministic;
      Alcotest.test_case "srng copy" `Quick test_srng_copy;
      Alcotest.test_case "srng uniform range" `Quick test_srng_uniform_range;
      Alcotest.test_case "srng int range" `Quick test_srng_int_range;
      Alcotest.test_case "srng gaussian moments" `Quick test_srng_gaussian_moments;
      Alcotest.test_case "srng split diverges" `Quick test_srng_split_diverges;
      Alcotest.test_case "srng jump" `Quick test_srng_jump;
      Alcotest.test_case "srng fill_gaussians" `Quick test_srng_fill_gaussians;
      qcheck test_srng_create_after_property;
      Alcotest.test_case "pool ordering" `Quick test_pool_ordering;
      Alcotest.test_case "pool exception propagation" `Quick test_pool_exception;
      Alcotest.test_case "pool nested-use guard" `Quick test_pool_nested;
      Alcotest.test_case "pool worker-local state" `Quick test_pool_worker_state;
      Alcotest.test_case "pool default domain count" `Quick test_pool_default_count;
      Alcotest.test_case "pool PVTOL_DOMAINS parsing" `Quick test_pool_env_parsing;
      Alcotest.test_case "srng shuffle permutation" `Quick test_srng_shuffle_permutation;
      Alcotest.test_case "stats known values" `Quick test_stats_known;
      Alcotest.test_case "stats welford" `Quick test_stats_welford_matches_direct;
      Alcotest.test_case "welford ci halfwidth" `Quick test_welford_ci_halfwidth;
      Alcotest.test_case "welford merge self guard" `Quick
        test_welford_merge_self_guard;
      Alcotest.test_case "stats quantile" `Quick test_stats_quantile;
      Alcotest.test_case "stats three sigma" `Quick test_three_sigma;
      Alcotest.test_case "erf values" `Quick test_erf_values;
      Alcotest.test_case "normal cdf" `Quick test_normal_cdf;
      Alcotest.test_case "quantile inverts cdf" `Quick test_normal_quantile_inverts_cdf;
      Alcotest.test_case "chi2" `Quick test_chi2;
      Alcotest.test_case "gamma identities" `Quick test_gamma_identities;
      Alcotest.test_case "fit gaussian accepted" `Quick test_fit_gaussian_accepted;
      Alcotest.test_case "fit uniform rejected" `Quick test_fit_uniform_rejected;
      Alcotest.test_case "histo counts" `Quick test_histo_counts;
      Alcotest.test_case "histo density" `Quick test_histo_density_integrates_to_one;
      Alcotest.test_case "geom basics" `Quick test_geom_basics;
      qcheck test_geom_partition_property;
      Alcotest.test_case "table render" `Quick test_table_render;
    ] )
