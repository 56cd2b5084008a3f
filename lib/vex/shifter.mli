(** Shifter building block.  The execute-stage slots place a barrel
    shifter in series with the ALU for shift-and-accumulate
    instructions, as in the paper's VEX configuration; {!Alu} layers
    {!fixed} shifts into it, one mux2 layer per amount bit. *)

open Gen

type direction = Left | Right

val fixed : t -> direction -> int -> bus -> bus
(** Shift by a compile-time constant (zero-filled); free of gates for
    the moved bits, tie cells for the filled positions. *)
