(** Adder generators.

    The execute-stage ALUs and address units use a carry-select
    organisation (ripple blocks with precomputed carry-0/carry-1 sums),
    which is what performance-driven synthesis of a [+] operator
    typically produces at this size; the multiplier's final stage and
    small counters use plain ripple. *)

open Gen

val full_adder : t -> net -> net -> net -> net * net
(** [full_adder t a b cin] = (sum, cout). *)

val ripple : t -> ?cin:net -> bus -> bus -> bus * net
(** [ripple t a b] adds two equal-width buses; returns (sum, carry-out).
    Default carry-in 0. *)

val carry_select : t -> ?cin:net -> bus -> bus -> bus * net
(** Carry-select adder with ripple blocks of 8 bits. *)

val kogge_stone : t -> ?cin:net -> bus -> bus -> bus * net
(** Kogge-Stone parallel-prefix adder: logarithmic depth, the structure
    performance-driven synthesis infers for critical [+] operators. *)

val incrementer : t -> bus -> bus
(** [a + 1], used by the fetch-stage PC. *)
