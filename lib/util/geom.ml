type point = { x : float; y : float }
type rect = { llx : float; lly : float; urx : float; ury : float }

let point x y = { x; y }

let rect ~llx ~lly ~urx ~ury =
  if urx < llx || ury < lly then invalid_arg "Geom.rect: corners not ordered";
  { llx; lly; urx; ury }

let width r = r.urx -. r.llx
let height r = r.ury -. r.lly
let area r = width r *. height r
let center r = { x = (r.llx +. r.urx) /. 2.0; y = (r.lly +. r.ury) /. 2.0 }

let contains r p = p.x >= r.llx && p.x < r.urx && p.y >= r.lly && p.y < r.ury

let subsumes outer inner =
  inner.llx >= outer.llx && inner.lly >= outer.lly && inner.urx <= outer.urx
  && inner.ury <= outer.ury

let dist a b = Float.hypot (a.x -. b.x) (a.y -. b.y)
