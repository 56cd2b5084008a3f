open Gen

type direction = Left | Right

let fixed t dir k data =
  let w = Array.length data in
  let zero = tie0 t in
  match dir with
  | Left -> Array.init w (fun i -> if i < k then zero else data.(i - k))
  | Right -> Array.init w (fun i -> if i + k < w then data.(i + k) else zero)
