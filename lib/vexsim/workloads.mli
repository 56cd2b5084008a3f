(** Benchmark programs beyond the paper's FIR, used by the
    workload-sensitivity power experiment (the paper measures a single
    FIR benchmark; these probe how much the normalized comparisons
    depend on that choice).

    Every workload assembles, runs on the ISS, and checks its result
    against a direct OCaml computation. *)

type t = {
  name : string;
  source : string;        (** assembly text *)
  stats : Sim.stats;
  trace : Int32.t array list;
  correct : bool;         (** ISS result matches the reference *)
}

val fir : ?seed:int -> unit -> t
(** The paper's benchmark (16 taps, 64 samples). *)

val dot_product : ?seed:int -> unit -> t
(** 64-element dot product — multiplier-heavy. *)

val iir_biquad : ?seed:int -> unit -> t
(** Direct-form-I biquad over 48 samples — feedback-limited ILP. *)

val vector_max : ?seed:int -> unit -> t
(** Running maximum of 96 elements — compare/branch-heavy, no
    multiplies. *)

val memcpy : ?seed:int -> unit -> t
(** 96-word block copy — pure load/store streaming. *)

val all : unit -> t list
