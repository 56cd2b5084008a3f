(** Process-wide metrics registry: named counters and histograms over
    lock-free per-domain shards.

    The registry is built for instrumenting hot paths (a Monte-Carlo
    sample, an STA pass, a pool chunk): when metrics are {e disabled}
    (the default) every update is a single [bool ref] read and
    allocates nothing, so instrumentation can stay in the inner loops
    permanently.  When enabled, counter and histogram updates write to
    a {e per-domain shard} — a plain mutable record reached through
    [Domain.DLS], so the hot path takes no lock and issues no atomic
    read-modify-write.  Shards are merged at read time, sorted by the
    id of the domain that created them; integer counts merge by exact
    commutative addition, so deterministic workloads produce
    bit-identical counter values for every [PVTOL_DOMAINS] setting.

    Enable with {!set_enabled} (the CLI does this for [--run-ledger]).

    Metric names must match [[a-zA-Z_][a-zA-Z0-9_]*] (the Prometheus
    charset).  Registering the same name twice returns the existing
    metric; registering it as a different kind raises
    [Invalid_argument]. *)

type counter
type histogram

val set_enabled : bool -> unit
(** Flip metric collection globally.  Call before spawning domains
    that should be observed; updates made while disabled are lost. *)

val enabled : unit -> bool

(** {1 Registration (cold path, idempotent per name)} *)

val counter : string -> counter
(** Monotonically increasing integer count. *)

val histogram : ?buckets:float array -> string -> histogram
(** Distribution over fixed bucket upper bounds (strictly increasing;
    an implicit [+inf] overflow bucket is appended).  Default buckets
    are exponential seconds from 10us to 10s. *)

(** {1 Updates (hot path; no-ops that allocate nothing when disabled)} *)

val incr : counter -> unit
val add : counter -> int -> unit
val observe : histogram -> float -> unit

(** {1 Reads (merge shards deterministically)} *)

val counter_value : counter -> int

val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val histogram_counts : histogram -> int array
(** Per-bucket (non-cumulative) counts; the last entry is the [+inf]
    overflow bucket, so the length is [Array.length buckets + 1]. *)

(** {1 Snapshot and export} *)

type histo_value = {
  buckets : float array;  (** upper bounds, without the +inf bucket *)
  counts : int array;     (** per-bucket counts, +inf last *)
  sum : float;
  count : int;
}

type value = Counter of int | Histogram of histo_value

type snapshot = (string * value) list
(** Sorted by metric name. *)

val snapshot : unit -> snapshot

val to_value : snapshot -> Json.t
(** [{"counters": {..}, "histograms": {..}}] — the run ledger's
    [metrics] object; histogram buckets carry non-cumulative counts
    and a ["+Inf"] overflow. *)

val summary_line : snapshot -> string
(** One line of the nonzero counters, name-sorted — the footer the CLI
    prints when metrics are on. *)
