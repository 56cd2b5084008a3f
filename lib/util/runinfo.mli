(** Run ledger: a self-describing record of one tool invocation.

    The paper's claims are quantitative, so every run should leave
    behind what was run (version, git revision, argv), under which
    knobs (seed, [PVTOL_DOMAINS], …), what it cost
    (wall/CPU time, GC totals, per-stage time/allocation/GC-collection
    attribution from the {!Trace}, pool job counts from the {!Metrics}
    counters and worker-idle totals from {!Pool.wall_totals}) and what
    it produced (an MD5 digest per
    emitted report, so two runs can be compared result-first).

    A collector is created at the start of the run (it snapshots the
    wall clock, CPU times and GC counters), accumulates config entries
    and artifact digests while the run executes, and is written as a
    JSON ledger at the end ([pvtol … --run-ledger run.json]).  The
    ledger is rendered human-readable by {!render}
    ([pvtol report run.json]). *)

type t
(** A mutable collector.  Thread-safe: artifacts and config entries may
    be added from pool workers. *)

val schema : int
(** Version of the ledger JSON layout (the ["schema"] field). *)

val version_string : unit -> string
(** ["<version> (git <describe>)"], or just the version when no git
    metadata is available — the [--version] string. *)

val create : ?argv:string list -> unit -> t
(** Start a collector.  [argv] defaults to the live [Sys.argv]. *)

val add_config : t -> string -> Json.t -> unit
(** Record one configuration entry (seed, domain count, …).
    Later entries with the same key override earlier ones. *)

val add_artifact : t -> name:string -> string -> unit
(** Record an emitted report: its [name] (a file name, or a
    [stdout:<exhibit>] pseudo-name) plus the MD5 digest and byte count
    of its full content. *)

val digest_hex : string -> string
(** MD5 of a content string, lowercase hex — the digest {!add_artifact}
    stores. *)

val to_json : ?trace:Trace.t -> ?metrics:Metrics.snapshot -> t -> Json.t
(** Close the ledger: wall/CPU/GC deltas are taken now.  [trace]
    contributes the per-stage attribution table; [metrics] the embedded
    counter snapshot and the pool object (its counts from the snapshot,
    its worker-idle/job wall totals read from {!Pool.wall_totals} now).  The collector stays
    usable (a later [to_json] re-reads the clocks). *)

val write :
  ?trace:Trace.t -> ?metrics:Metrics.snapshot -> t -> file:string -> unit

val render : Json.t -> (string, string) result
(** Render a parsed ledger as a markdown report: run header, config
    table, per-stage table (duration, self time, allocation, GC
    collections, domain), pool attribution, top metrics counters and
    the artifact digests.  [Error] when the value is not a ledger of
    this {!schema}, or names the first field {!to_json} writes that is
    missing or has the wrong type (a [pool] or [metrics] object is
    checked when present). *)
