type t =
  | Inv
  | Buf
  | Nand2
  | Nand3
  | Nor2
  | Nor3
  | And2
  | Or2
  | Xor2
  | Xnor2
  | Aoi21
  | Oai21
  | Mux2
  | Dff
  | Ls
  | Tiehi
  | Tielo

let all =
  [ Inv; Buf; Nand2; Nand3; Nor2; Nor3; And2; Or2; Xor2; Xnor2; Aoi21; Oai21;
    Mux2; Dff; Ls; Tiehi; Tielo ]

let arity = function
  | Inv | Buf | Dff | Ls -> 1
  | Nand2 | Nor2 | And2 | Or2 | Xor2 | Xnor2 -> 2
  | Nand3 | Nor3 | Aoi21 | Oai21 | Mux2 -> 3
  | Tiehi | Tielo -> 0

let is_sequential = function Dff -> true | _ -> false
let is_level_shifter = function Ls -> true | _ -> false

let eval3 k a b c =
  match k with
  | Inv -> not a
  | Buf | Dff | Ls -> a
  | Nand2 -> not (a && b)
  | Nand3 -> not (a && b && c)
  | Nor2 -> not (a || b)
  | Nor3 -> not (a || b || c)
  | And2 -> a && b
  | Or2 -> a || b
  | Xor2 -> a <> b
  | Xnor2 -> a = b
  | Aoi21 -> not ((a && b) || c)
  | Oai21 -> not ((a || b) && c)
  | Mux2 -> if c then b else a
  | Tiehi -> true
  | Tielo -> false

let eval k ins =
  let n = Array.length ins in
  if n <> arity k then invalid_arg "Kind.eval: arity mismatch";
  let pin i = i < n && ins.(i) in
  eval3 k (pin 0) (pin 1) (pin 2)

let name = function
  | Inv -> "INV"
  | Buf -> "BUF"
  | Nand2 -> "NAND2"
  | Nand3 -> "NAND3"
  | Nor2 -> "NOR2"
  | Nor3 -> "NOR3"
  | And2 -> "AND2"
  | Or2 -> "OR2"
  | Xor2 -> "XOR2"
  | Xnor2 -> "XNOR2"
  | Aoi21 -> "AOI21"
  | Oai21 -> "OAI21"
  | Mux2 -> "MUX2"
  | Dff -> "DFF"
  | Ls -> "LS"
  | Tiehi -> "TIEHI"
  | Tielo -> "TIELO"

let of_name s =
  let rec find = function
    | [] -> None
    | k :: rest -> if String.equal (name k) s then Some k else find rest
  in
  find all
