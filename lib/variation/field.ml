type t = {
  a : float;
  b : float;
  c : float;
  d : float;
  e : float;
  intercept : float;
  field_mm : float;
  l_nominal_nm : float;
}

let raw_eval (a, b, c, d, e) x y =
  (a *. x *. x) +. (b *. y *. y) +. (c *. x) +. (d *. y) +. (e *. x *. y)

(* Raw polynomial shape (before calibration): a shallow bowl falling
   along the +x+y diagonal, so the lower-left corner prints the longest
   (slowest) transistors.  Magnitudes are per-mm of a 28mm field. *)
let shape = (-4.0e-4, -3.2e-4, -9.0e-3, -1.1e-2, -4.5e-4)

(* Exposure-field edge; the calibration region is the chip (Fig. 2). *)
let field_mm = 28.0
let calibrate_mm = 14.0

let create ~l_nominal_nm ~max_dev_frac =
  (* Sample the raw shape over the calibration region, centre it, then
     scale its extremum to the deviation target. *)
  let n = 64 in
  let lo = ref infinity and hi = ref neg_infinity in
  for i = 0 to n do
    for j = 0 to n do
      let x = float_of_int i *. calibrate_mm /. float_of_int n in
      let y = float_of_int j *. calibrate_mm /. float_of_int n in
      let v = raw_eval shape x y in
      if v < !lo then lo := v;
      if v > !hi then hi := v
    done
  done;
  let mid = (!lo +. !hi) /. 2.0 in
  let half_range = (!hi -. !lo) /. 2.0 in
  assert (half_range > 0.0);
  let scale = max_dev_frac *. l_nominal_nm /. half_range in
  let a, b, c, d, e = shape in
  {
    a = a *. scale;
    b = b *. scale;
    c = c *. scale;
    d = d *. scale;
    e = e *. scale;
    intercept = l_nominal_nm -. (mid *. scale);
    field_mm;
    l_nominal_nm;
  }

let default = create ~l_nominal_nm:65.0 ~max_dev_frac:0.055

(* [@inline] so the map kernel below evaluates the polynomial in
   registers: a float returned by an out-of-line call is boxed.  The
   clamp is a top-level function because a function that defines a
   closure is never inlined. *)
let[@inline] clamp t v = Float.max 0.0 (Float.min t.field_mm v)

let[@inline] systematic_nm t ~x_mm ~y_mm =
  let x = clamp t x_mm and y = clamp t y_mm in
  (t.a *. x *. x) +. (t.b *. y *. y) +. (t.c *. x) +. (t.d *. y)
  +. (t.e *. x *. y) +. t.intercept

let systematic_map_into t ~origin_x_mm ~origin_y_mm ~xs_um ~ys_um ~out =
  let n = Array.length out in
  if Array.length xs_um <> n || Array.length ys_um <> n then
    invalid_arg "Field.systematic_map_into: array lengths differ";
  (* Same arithmetic as [Position.to_field] followed by [systematic_nm]. *)
  for i = 0 to n - 1 do
    let x_mm = origin_x_mm +. (Array.unsafe_get xs_um i /. 1000.0) in
    let y_mm = origin_y_mm +. (Array.unsafe_get ys_um i /. 1000.0) in
    Array.unsafe_set out i (systematic_nm t ~x_mm ~y_mm)
  done

let deviation_frac t ~x_mm ~y_mm =
  (systematic_nm t ~x_mm ~y_mm -. t.l_nominal_nm) /. t.l_nominal_nm

let extremes t =
  let n = 64 in
  let lo = ref infinity and hi = ref neg_infinity in
  for i = 0 to n do
    for j = 0 to n do
      let x = float_of_int i *. t.field_mm /. float_of_int n in
      let y = float_of_int j *. t.field_mm /. float_of_int n in
      let v = systematic_nm t ~x_mm:x ~y_mm:y in
      if v < !lo then lo := v;
      if v > !hi then hi := v
    done
  done;
  (!lo, !hi)

(* Map cells along each chip edge. *)
let cells = 14

let render_map t ~chip_mm =
  let buf = Buffer.create 1024 in
  let lo, hi = extremes t in
  let glyphs = " .:-=+*#%@" in
  Buffer.add_string buf
    (Printf.sprintf
       "Systematic Lgate map, %.0fx%.0fmm chip at field origin (nominal %.1fnm)\n"
       chip_mm chip_mm t.l_nominal_nm);
  for j = cells - 1 downto 0 do
    for i = 0 to cells - 1 do
      let x = (float_of_int i +. 0.5) *. chip_mm /. float_of_int cells in
      let y = (float_of_int j +. 0.5) *. chip_mm /. float_of_int cells in
      let v = systematic_nm t ~x_mm:x ~y_mm:y in
      let g =
        int_of_float ((v -. lo) /. (hi -. lo) *. float_of_int (String.length glyphs - 1))
      in
      let g = max 0 (min (String.length glyphs - 1) g) in
      Buffer.add_char buf glyphs.[g];
      Buffer.add_char buf glyphs.[g]
    done;
    let y = (float_of_int j +. 0.5) *. chip_mm /. float_of_int cells in
    Buffer.add_string buf
      (Printf.sprintf "  y=%4.1fmm  Lg(diag)=%.2fnm\n" y
         (systematic_nm t ~x_mm:y ~y_mm:y))
  done;
  Buffer.add_string buf
    (Printf.sprintf "range over field: %.2f .. %.2f nm (%+.1f%% .. %+.1f%%)\n" lo hi
       (100.0 *. (lo -. t.l_nominal_nm) /. t.l_nominal_nm)
       (100.0 *. (hi -. t.l_nominal_nm) /. t.l_nominal_nm));
  Buffer.contents buf
