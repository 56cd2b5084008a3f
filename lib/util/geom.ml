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

let intersects a b =
  a.llx < b.urx && b.llx < a.urx && a.lly < b.ury && b.lly < a.ury

let union a b =
  {
    llx = min a.llx b.llx;
    lly = min a.lly b.lly;
    urx = max a.urx b.urx;
    ury = max a.ury b.ury;
  }

let inter a b =
  let llx = max a.llx b.llx
  and lly = max a.lly b.lly
  and urx = min a.urx b.urx
  and ury = min a.ury b.ury in
  if urx > llx && ury > lly then Some { llx; lly; urx; ury } else None

let expand r m =
  { llx = r.llx -. m; lly = r.lly -. m; urx = r.urx +. m; ury = r.ury +. m }

let subsumes outer inner =
  inner.llx >= outer.llx && inner.lly >= outer.lly && inner.urx <= outer.urx
  && inner.ury <= outer.ury

let dist a b = Float.hypot (a.x -. b.x) (a.y -. b.y)
