(** VEX-like VLIW instruction set: 4 issue slots per bundle, 64 GPRs,
    the operation mix of the paper's execute slot (ALU with in-series
    shifter, compare, address/memory, multiplier) plus branches in
    slot 0 (the branch unit lives in decode).

    The binary encoding matches the field layout the gate-level core
    generator decodes: within a slot's 32-bit word (LSB first),
    bits 0-5 rs1, 6-11 rs2, 12-17 rd, 18-25 imm8, 26-31 opcode. *)

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
  | Cmplt  (** rd <- (rs1 < rs2), signed *)
  | Cmpeq
  | Movi   (** rd <- imm *)
  | Ld     (** rd <- mem[rs1 + imm] *)
  | St     (** mem[rs1 + imm] <- rs2 *)
  | Brz    (** branch to imm-indexed bundle if rs1 = 0; slot 0 only *)
  | Brnz

type op = {
  opcode : opcode;
  rd : int;
  rs1 : int;
  rs2 : int;
  imm : int;  (** 8-bit, sign-extended where used *)
}

type bundle = op array
(** Exactly [slots] operations. *)

val slots : int
val n_regs : int

val nop : op

val opcode_number : opcode -> int
val opcode_of_number : int -> opcode option
val opcode_name : opcode -> string
val opcode_of_name : string -> opcode option

val encode_op : op -> int32
(** 32-bit slot word. *)

val decode_op : int32 -> op
(** Inverse of {!encode_op} (unknown opcodes decode as [Nop]). *)

val encode_bundle : bundle -> int32 array

val is_branch : opcode -> bool
val writes_reg : opcode -> bool
