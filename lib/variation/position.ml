type t = { label : string; origin_x_mm : float; origin_y_mm : float }

let chip_mm = 14.0

let at_xy ~x_frac ~y_frac =
  (* %.6g keeps enough digits that distinct grid fractions map to
     distinct labels — positions are memoized by label downstream. *)
  let label = Printf.sprintf "xy-%.6g-%.6g" x_frac y_frac in
  { label; origin_x_mm = x_frac *. chip_mm; origin_y_mm = y_frac *. chip_mm }

let at_fraction ?label frac =
  let label =
    match label with Some l -> l | None -> Printf.sprintf "diag-%.2f" frac
  in
  { label; origin_x_mm = frac *. chip_mm; origin_y_mm = frac *. chip_mm }

let x_frac t = t.origin_x_mm /. chip_mm
let y_frac t = t.origin_y_mm /. chip_mm

let point_a = at_fraction ~label:"A" 0.0
let point_b = at_fraction ~label:"B" 0.25
let point_c = at_fraction ~label:"C" 0.55
let point_d = at_fraction ~label:"D" 0.80
let named = [ point_a; point_b; point_c; point_d ]

let to_field t ~x_um ~y_um =
  (t.origin_x_mm +. (x_um /. 1000.0), t.origin_y_mm +. (y_um /. 1000.0))
