(** Logical cell kinds of the 65nm-class standard-cell library.

    Every kind carries an exact boolean semantics ({!eval}) so that
    generated datapath blocks (adders, shifters, multipliers) can be
    verified functionally against integer arithmetic, and so that the
    power engine can propagate switching activity through real logic. *)

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
  | Aoi21  (** !(a*b + c) *)
  | Oai21  (** !((a+b) * c) *)
  | Mux2   (** inputs a, b, sel: sel ? b : a *)
  | Dff    (** D flip-flop; input d, output q *)
  | Ls     (** level shifter low-Vdd -> high-Vdd; logically a buffer *)
  | Tiehi
  | Tielo

val all : t list

val arity : t -> int
(** Number of logic inputs (0 for tie cells, 1 for Dff's D pin). *)

val is_sequential : t -> bool
val is_level_shifter : t -> bool

val eval : t -> bool array -> bool
(** Combinational evaluation.  For [Dff] this evaluates the D pin
    transparently (the sequential behaviour lives in the simulator).
    Raises [Invalid_argument] on arity mismatch. *)

val eval3 : t -> bool -> bool -> bool -> bool
(** [eval3 k a b c] is {!eval} on the first {!arity} of the pin values
    [a], [b], [c]; the rest are ignored.  No arity check and no
    allocation, for simulators that store pins in flat arrays. *)

val name : t -> string
val of_name : string -> t option
