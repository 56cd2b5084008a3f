type t = { mutable state : int64; mutable cached : float option }

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix (Int64.of_int seed); cached = None }

let copy g = { state = g.state; cached = g.cached }

let bits64 g =
  g.state <- Int64.add g.state golden_gamma;
  mix g.state

let jump g n =
  if n < 0 then invalid_arg "Srng.jump: negative count";
  (* SplitMix64 state advances by a fixed gamma per draw, so skipping
     [n] draws is a single multiply-add.  Any cached Box-Muller half
     belongs to the undrawn part of the stream and is dropped. *)
  g.state <- Int64.add g.state (Int64.mul (Int64.of_int n) golden_gamma);
  g.cached <- None

(* Boost-style hash combine, clamped non-negative for [create]. *)
let combine h k = (h lxor (k + 0x9e3779b9 + (h lsl 6) + (h lsr 2))) land max_int
let substream_seed seed keys = List.fold_left combine seed keys

let split g =
  let s = bits64 g in
  { state = mix s; cached = None }

let uniform g =
  (* 53 high bits scaled into [0,1). *)
  let b = Int64.shift_right_logical (bits64 g) 11 in
  Int64.to_float b *. 0x1.0p-53

let float g x = uniform g *. x

let int g n =
  assert (n > 0);
  (* Rejection sampling to avoid modulo bias. *)
  let rec draw () =
    let b = Int64.to_int (Int64.shift_right_logical (bits64 g) 2) in
    let v = b mod n in
    if b - v + (n - 1) < 0 then draw () else v
  in
  draw ()

let gaussian g =
  match g.cached with
  | Some z ->
    g.cached <- None;
    z
  | None ->
    let rec pair () =
      let u1 = uniform g in
      if u1 <= 1e-300 then pair ()
      else
        let u2 = uniform g in
        let r = sqrt (-2.0 *. log u1) in
        let theta = 2.0 *. Float.pi *. u2 in
        (r *. cos theta, r *. sin theta)
    in
    let z0, z1 = pair () in
    g.cached <- Some z1;
    z0

let create_after ?(uniforms = 0) ~gaussians seed =
  if uniforms < 0 || gaussians < 0 then
    invalid_arg "Srng.create_after: negative count";
  (* One raw draw per uniform and two per Box-Muller pair, so the
     prefix is one O(1) jump.  An odd gaussian count ends inside a pair
     whose draws are the prefix's last two: jump to just before them
     and draw the pair again, leaving its second half cached.  The
     [u1 <= 1e-300] re-draw is ignored (probability 2^-53 per pair). *)
  let g = create seed in
  if gaussians land 1 = 0 then jump g (uniforms + gaussians)
  else begin
    jump g (uniforms + gaussians - 1);
    ignore (gaussian g)
  end;
  g

let fill_gaussians g out ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length out then
    invalid_arg "Srng.fill_gaussians: range out of bounds";
  let stop = pos + len in
  let i = ref pos in
  (* Leading cached half, if the previous draw left one. *)
  (if !i < stop then
     match g.cached with
     | Some z ->
       g.cached <- None;
       out.(!i) <- z;
       incr i
     | None -> ());
  (* Whole pairs through a local state copy: one loop, no per-call
     dispatch, no [float option] boxing.  The draw sequence — two
     [uniform]s per Box-Muller pair, [u1 = 0] rejection included — is
     exactly the one [gaussian] produces call by call.  The state lives
     in a ref no closure captures and [mix] is inlined, so the compiler
     keeps the [int64]s unboxed: the loop allocates nothing. *)
  let s = ref g.state in
  (* Unsafe writes are sound: the range check above guarantees
     [pos + len <= length out] and [!i + 1 < stop <= pos + len]. *)
  while !i + 1 < stop do
    s := Int64.add !s golden_gamma;
    let u1 =
      Int64.to_float (Int64.shift_right_logical (mix !s) 11) *. 0x1.0p-53
    in
    if u1 > 1e-300 then begin
      s := Int64.add !s golden_gamma;
      let u2 =
        Int64.to_float (Int64.shift_right_logical (mix !s) 11) *. 0x1.0p-53
      in
      let r = sqrt (-2.0 *. log u1) in
      let theta = 2.0 *. Float.pi *. u2 in
      Array.unsafe_set out !i (r *. cos theta);
      Array.unsafe_set out (!i + 1) (r *. sin theta);
      i := !i + 2
    end
  done;
  g.state <- !s;
  (* Odd tail: draw one more pair and cache its second half, exactly
     like a trailing [gaussian] call. *)
  if !i < stop then out.(!i) <- gaussian g

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
