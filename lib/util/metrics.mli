(** Process-wide counter registry over lock-free per-domain shards.

    The registry is built for instrumenting hot paths (a Monte-Carlo
    sample, an STA pass, a pool chunk): when metrics are {e disabled}
    (the default) every update is a single [bool ref] read and
    allocates nothing, so instrumentation can stay in the inner loops
    permanently.  When enabled, a counter update writes to a
    {e per-domain shard} — a plain mutable record reached through
    [Domain.DLS], so the hot path takes no lock and issues no atomic
    read-modify-write.  Shards are merged at read time by integer
    addition, which is exact in any order, so deterministic workloads
    produce bit-identical counter values for every [PVTOL_DOMAINS]
    setting.

    The registry holds counts only: a wall-clock figure stays with the
    code that measures it ({!Trace} spans, {!Pool.wall_totals}).

    Enable with {!set_enabled} (the CLI does this for [--run-ledger]).

    Counter names must match [[a-zA-Z_][a-zA-Z0-9_]*] (the Prometheus
    charset).  Registering the same name twice returns the existing
    counter. *)

type counter

val set_enabled : bool -> unit
(** Flip metric collection globally.  Call before spawning domains
    that should be observed; updates made while disabled are lost. *)

val enabled : unit -> bool

val counter : string -> counter
(** Register (cold path, idempotent per name) a monotonically
    increasing integer count. *)

(** {1 Updates (hot path; no-ops that allocate nothing when disabled)} *)

val incr : counter -> unit
val add : counter -> int -> unit

(** {1 Reads (merge shards)} *)

val counter_value : counter -> int

type snapshot = (string * int) list
(** Every registered counter's value, sorted by name. *)

val snapshot : unit -> snapshot

val to_value : snapshot -> Json.t
(** [{"counters": {..}}] — the run ledger's [metrics] object. *)

val summary_line : snapshot -> string
(** One line of the nonzero counters, name-sorted — the footer the CLI
    prints when metrics are on. *)
