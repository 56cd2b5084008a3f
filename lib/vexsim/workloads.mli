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

val all : unit -> t list
(** The five workloads, seeded 3 to 7 in this order: the paper's FIR
    (16 taps, 64 samples); a 64-element dot product (multiplier-heavy);
    a direct-form-I biquad over 48 samples (feedback-limited ILP); a
    running maximum of 96 elements (compare/branch-heavy, no
    multiplies); a 96-word block copy (pure load/store streaming). *)
