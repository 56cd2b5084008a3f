(** Deterministic, splittable pseudo-random number generator.

    Implementation of SplitMix64 (Steele, Lea, Flood 2014).  Every
    stochastic component of the library draws from an explicit [t] so
    that experiments are reproducible from a single seed and independent
    subsystems can be given independent streams via {!split}.  A
    parallel unit of work either seeds its own substream
    ({!substream_seed}) or resumes a serial stream at its start
    ({!create_after}); both depend only on the unit's keys or index, so
    results are bit-identical for every domain count and schedule. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val copy : t -> t
(** [copy g] duplicates the current state of [g], including any cached
    Box-Muller half.  Combined with {!fill_gaussians} this gives a
    {e draw-ahead replay}: a consumer about to hand [g] to a kernel can
    [fill_gaussians (copy g)] to observe the exact gaussians the kernel
    is about to consume without disturbing [g] — the tests check the
    sampling seam against such replays. *)

val jump : t -> int -> unit
(** [jump g n] advances [g] past the next [n] raw draws in O(1) —
    SplitMix64's state moves by a fixed increment per draw — and clears
    any cached Box-Muller half.  After [jump g n], [g] produces exactly
    the stream a fresh copy would after [n] calls to {!bits64}.
    {!create_after} builds stream addressing on it. *)

val substream_seed : int -> int list -> int
(** [substream_seed seed keys] folds a boost-style hash combine over
    [keys] into a non-negative seed for one substream of a larger
    experiment (a wafer cell's field, a sampling round's stratum). *)

val split : t -> t
(** [split g] advances [g] and returns a new generator whose stream is
    statistically independent of [g]'s subsequent output. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g n] draws uniformly from [0, n-1].  [n] must be positive. *)

val float : t -> float -> float
(** [float g x] draws uniformly from [0, x). *)

val uniform : t -> float
(** Uniform draw in [0,1). *)

val gaussian : t -> float
(** Standard normal draw (Box-Muller, cached pair). *)

val create_after : ?uniforms:int -> gaussians:int -> int -> t
(** [create_after ~uniforms ~gaussians seed] is, in O(1), the state of
    [create seed] after [uniforms] {!uniform} draws (default 0) and
    [gaussians] {!gaussian} or {!fill_gaussians} draws in any order
    whose last draw is a gaussian when [gaussians] is odd, cached
    Box-Muller half included.  Only this module knows that pair
    layout.  The [u1 <= 1e-300] re-draw is ignored (probability
    2{^-53} per pair).  [Invalid_argument] on a negative count. *)

val fill_gaussians : t -> float array -> pos:int -> len:int -> unit
(** [fill_gaussians g out ~pos ~len] writes [len] standard normal draws
    into [out.(pos .. pos+len-1)], {e bit-identical} to [len] successive
    {!gaussian} calls (including the cached Box-Muller half at both
    ends), but through one tight loop that keeps the SplitMix64 state in
    a local and allocates nothing per pair — the bulk-draw entry point
    of the batched Monte-Carlo engine.  Because the bit-identity holds
    for any [len], a replay via {!copy} + [fill_gaussians] sees exactly
    the values any downstream mix of [gaussian] / [fill_gaussians]
    calls will produce from the original generator. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
