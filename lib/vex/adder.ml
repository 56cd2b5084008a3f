open Gen

let full_adder t a b cin =
  let p = xor2 t a b in
  let sum = xor2 t p cin in
  let g = and2 t a b in
  let cout = or2 t g (and2 t p cin) in
  (sum, cout)

let ripple t ?cin a b =
  let w = Array.length a in
  assert (Array.length b = w && w > 0);
  let cin = match cin with Some c -> c | None -> tie0 t in
  let sum = Array.make w a.(0) in
  let carry = ref cin in
  for i = 0 to w - 1 do
    let s, c = full_adder t a.(i) b.(i) !carry in
    sum.(i) <- s;
    carry := c
  done;
  (sum, !carry)

let carry_select t ?cin a b =
  let block = 8 in
  let w = Array.length a in
  assert (Array.length b = w && w > 0);
  let cin = match cin with Some c -> c | None -> tie0 t in
  let sum = Array.make w a.(0) in
  let carry = ref cin in
  let pos = ref 0 in
  (* First block ripples from the true carry-in; later blocks are
     computed for both carry values and selected. *)
  while !pos < w do
    let bw = min block (w - !pos) in
    let sub arr = Array.sub arr !pos bw in
    if !pos = 0 then begin
      let s, c = ripple t ~cin:!carry (sub a) (sub b) in
      Array.blit s 0 sum !pos bw;
      carry := c
    end
    else begin
      let s0, c0 = ripple t ~cin:(tie0 t) (sub a) (sub b) in
      let s1, c1 = ripple t ~cin:(tie1 t) (sub a) (sub b) in
      let sel = !carry in
      let s = mux2_bus t s0 s1 ~sel in
      Array.blit s 0 sum !pos bw;
      carry := mux2 t c0 c1 ~sel
    end;
    pos := !pos + bw
  done;
  (sum, !carry)

let kogge_stone t ?cin a b =
  let w = Array.length a in
  assert (Array.length b = w && w > 0);
  (* Generate/propagate, then log2 w prefix-combine levels:
     (g, p) o (g', p') = (g + p*g', p*p'). *)
  let g = ref (Array.map2 (and2 t) a b) in
  let p0 = Array.map2 (xor2 t) a b in
  let p = ref (Array.copy p0) in
  let d = ref 1 in
  while !d < w do
    let g' = Array.copy !g and p' = Array.copy !p in
    for i = w - 1 downto !d do
      g'.(i) <- or2 t !g.(i) (and2 t !p.(i) !g.(i - !d));
      p'.(i) <- and2 t !p.(i) !p.(i - !d)
    done;
    g := g';
    p := p';
    d := !d * 2
  done;
  (* Carries: c_i = G_i + P_i * cin (prefix over bits 0..i). *)
  let carry_into i =
    match cin with
    | None -> if i = 0 then None else Some (!g).(i - 1)
    | Some c ->
      if i = 0 then Some c
      else Some (or2 t (!g).(i - 1) (and2 t (!p).(i - 1) c))
  in
  let sum =
    Array.init w (fun i ->
        match carry_into i with
        | None -> buf t p0.(i)
        | Some c -> xor2 t p0.(i) c)
  in
  let cout =
    match carry_into w with Some c -> c | None -> assert false
  in
  (sum, cout)

let incrementer t a =
  let w = Array.length a in
  let sum = Array.make w a.(0) in
  let carry = ref (tie1 t) in
  for i = 0 to w - 1 do
    sum.(i) <- xor2 t a.(i) !carry;
    if i < w - 1 then carry := and2 t a.(i) !carry
  done;
  sum
