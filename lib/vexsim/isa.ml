type opcode =
  | Nop
  | Add
  | Sub
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Mul
  | Cmplt
  | Cmpeq
  | Movi
  | Ld
  | St
  | Brz
  | Brnz

type op = { opcode : opcode; rd : int; rs1 : int; rs2 : int; imm : int }
type bundle = op array

let slots = 4
let n_regs = 64

let nop = { opcode = Nop; rd = 0; rs1 = 0; rs2 = 0; imm = 0 }

let all_opcodes =
  [ Nop; Add; Sub; And; Or; Xor; Shl; Shr; Mul; Cmplt; Cmpeq; Movi; Ld; St; Brz; Brnz ]

let opcode_number op =
  let rec idx i = function
    | [] -> assert false
    | o :: rest -> if o = op then i else idx (i + 1) rest
  in
  idx 0 all_opcodes

let opcode_of_number n = List.nth_opt all_opcodes n

let opcode_name = function
  | Nop -> "nop"
  | Add -> "add"
  | Sub -> "sub"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Mul -> "mul"
  | Cmplt -> "cmplt"
  | Cmpeq -> "cmpeq"
  | Movi -> "movi"
  | Ld -> "ld"
  | St -> "st"
  | Brz -> "brz"
  | Brnz -> "brnz"

let opcode_of_name s =
  List.find_opt (fun o -> String.equal (opcode_name o) s) all_opcodes

let encode_op { opcode; rd; rs1; rs2; imm } =
  let ( |<< ) v n = Int32.shift_left (Int32.of_int (v land 0x3f)) n in
  let imm8 = Int32.shift_left (Int32.of_int (imm land 0xff)) 18 in
  Int32.logor (rs1 |<< 0)
    (Int32.logor (rs2 |<< 6)
       (Int32.logor (rd |<< 12)
          (Int32.logor imm8 (opcode_number opcode |<< 26))))

let decode_op w =
  let bits lo len = Int32.to_int (Int32.shift_right_logical w lo) land ((1 lsl len) - 1) in
  let opcode =
    match opcode_of_number (bits 26 6) with Some o -> o | None -> Nop
  in
  { opcode; rs1 = bits 0 6; rs2 = bits 6 6; rd = bits 12 6; imm = bits 18 8 }

let encode_bundle b =
  assert (Array.length b = slots);
  Array.map encode_op b

let is_branch = function Brz | Brnz -> true | _ -> false

let writes_reg = function
  | Add | Sub | And | Or | Xor | Shl | Shr | Mul | Cmplt | Cmpeq | Movi | Ld -> true
  | Nop | St | Brz | Brnz -> false
