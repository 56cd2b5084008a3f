module Welford = struct
  include Stats.Running

  (* Chan et al. pairwise update.  Only reads the source, only writes
     [into]; merging a fixed sequence of accumulators in a fixed order
     is therefore bit-deterministic. *)
  let merge ~into src =
    if into == src then
      invalid_arg "Stream_stats.Welford.merge: accumulator merged into itself";
    if src.n > 0 then begin
      if into.n = 0 then begin
        into.n <- src.n;
        into.mean <- src.mean;
        into.m2 <- src.m2;
        into.min <- src.min;
        into.max <- src.max
      end
      else begin
        let na = float_of_int into.n and nb = float_of_int src.n in
        let n = na +. nb in
        let delta = src.mean -. into.mean in
        into.mean <- into.mean +. (delta *. nb /. n);
        into.m2 <- into.m2 +. src.m2 +. (delta *. delta *. na *. nb /. n);
        into.n <- into.n + src.n;
        if src.min < into.min then into.min <- src.min;
        if src.max > into.max then into.max <- src.max
      end
    end

  let ci_halfwidth ?(confidence = 0.95) t =
    if not (confidence > 0.0 && confidence < 1.0) then
      invalid_arg
        "Stream_stats.Welford.ci_halfwidth: confidence must be in (0, 1)";
    if t.n < 2 then infinity
    else
      let zc =
        Specfun.normal_quantile ~mu:0.0 ~sigma:1.0 ((1.0 +. confidence) /. 2.0)
      in
      zc *. sqrt (variance t /. float_of_int t.n)

  let summary t =
    if t.n = 0 then invalid_arg "Stream_stats.Welford.summary: empty";
    {
      Stats.n = t.n;
      mean = t.mean;
      stddev = stddev t;
      min = t.min;
      max = t.max;
    }
end

module P2 = struct
  (* Jain & Chlamtac, "The P^2 algorithm for dynamic calculation of
     quantiles and histograms without storing observations", CACM 1985.
     Five markers: min, p/2, p, (1+p)/2, max. *)
  type t = {
    p : float;
    q : float array;      (* marker heights *)
    pos : float array;    (* actual marker positions (1-based counts) *)
    want : float array;   (* desired marker positions *)
    incr : float array;   (* desired-position increment per observation *)
    mutable n : int;
  }

  let create p =
    if not (p > 0.0 && p < 1.0) then
      invalid_arg "Stream_stats.P2.create: p must be in (0, 1)";
    {
      p;
      q = Array.make 5 0.0;
      pos = [| 1.0; 2.0; 3.0; 4.0; 5.0 |];
      want = [| 1.0; 1.0 +. (2.0 *. p); 1.0 +. (4.0 *. p); 3.0 +. (2.0 *. p); 5.0 |];
      incr = [| 0.0; p /. 2.0; p; (1.0 +. p) /. 2.0; 1.0 |];
      n = 0;
    }

  (* Piecewise-parabolic marker adjustment; falls back to linear when
     the parabola would cross a neighbour. *)
  let adjust t i d =
    let q = t.q and pos = t.pos in
    let np = pos.(i) +. d in
    let parabolic =
      q.(i)
      +. d
         /. (pos.(i + 1) -. pos.(i - 1))
         *. (((pos.(i) -. pos.(i - 1) +. d) *. (q.(i + 1) -. q.(i))
              /. (pos.(i + 1) -. pos.(i)))
            +. ((pos.(i + 1) -. pos.(i) -. d) *. (q.(i) -. q.(i - 1))
               /. (pos.(i) -. pos.(i - 1))))
    in
    if q.(i - 1) < parabolic && parabolic < q.(i + 1) then q.(i) <- parabolic
    else begin
      let j = if d > 0.0 then i + 1 else i - 1 in
      q.(i) <- q.(i) +. (d *. (q.(j) -. q.(i)) /. (pos.(j) -. pos.(i)))
    end;
    pos.(i) <- np

  let add t x =
    t.n <- t.n + 1;
    if t.n <= 5 then begin
      (* Bootstrap: store and keep the first five observations sorted
         in the marker heights. *)
      t.q.(t.n - 1) <- x;
      let sub = Array.sub t.q 0 t.n in
      Array.sort compare sub;
      Array.blit sub 0 t.q 0 t.n
    end
    else begin
      let q = t.q and pos = t.pos in
      let k =
        if x < q.(0) then begin
          q.(0) <- x;
          0
        end
        else if x >= q.(4) then begin
          q.(4) <- x;
          3
        end
        else begin
          let k = ref 0 in
          for i = 1 to 3 do
            if x >= q.(i) then k := i
          done;
          !k
        end
      in
      for i = k + 1 to 4 do
        pos.(i) <- pos.(i) +. 1.0
      done;
      for i = 0 to 4 do
        t.want.(i) <- t.want.(i) +. t.incr.(i)
      done;
      for i = 1 to 3 do
        let d = t.want.(i) -. pos.(i) in
        if
          (d >= 1.0 && pos.(i + 1) -. pos.(i) > 1.0)
          || (d <= -1.0 && pos.(i - 1) -. pos.(i) < -1.0)
        then adjust t i (if d >= 1.0 then 1.0 else -1.0)
      done
    end

  let estimate t =
    if t.n = 0 then invalid_arg "Stream_stats.P2.estimate: empty";
    if t.n <= 5 then begin
      (* Exact: interpolate order statistics like Stats.quantile. *)
      let sorted = Array.sub t.q 0 t.n in
      Array.sort compare sorted;
      let pos = t.p *. float_of_int (t.n - 1) in
      let lo = int_of_float (Float.floor pos) in
      let hi = Stdlib.min (lo + 1) (t.n - 1) in
      let frac = pos -. float_of_int lo in
      (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
    end
    else t.q.(2)
end

module Counter = struct
  type t = int array

  let create n =
    if n <= 0 then invalid_arg "Stream_stats.Counter.create: empty range";
    Array.make n 0

  let clamp t v = Stdlib.min (Array.length t - 1) (Stdlib.max 0 v)
  let add t v = t.(clamp t v) <- t.(clamp t v) + 1
  let total t = Array.fold_left ( + ) 0 t
  let to_array t = Array.copy t

  let merge ~into src =
    if Array.length into <> Array.length src then
      invalid_arg "Stream_stats.Counter.merge: range mismatch";
    Array.iteri (fun i v -> into.(i) <- into.(i) + v) src
end
