(** Warnings on stderr through one mutex-protected sink, so lines from
    concurrent domains never interleave.

    The library speaks only when something is wrong and the run goes on
    regardless (a bad [PVTOL_DOMAINS], say): every message is a
    warning, written as ["pvtol: [warn] <msg>"]. *)

val warn : ('a, unit, string, unit) format4 -> 'a

type once
(** One-shot latch for warn-once call sites, backed by an [Atomic.t]:
    safe to race from any number of domains, fires exactly once. *)

val once : unit -> once

val warn_once : once -> ('a, unit, string, unit) format4 -> 'a
(** Emit the warning the first time this latch is hit; later calls are
    no-ops. *)

val set_sink : (string -> unit) -> unit
(** Replace the output sink (tests, custom routing).  The sink
    receives the raw message; serialization is the sink's concern —
    {!default_sink} takes the global log mutex. *)

val default_sink : string -> unit
(** The standard sink: ["pvtol: [warn] <msg>\n"] to stderr, flushed,
    under the log mutex. *)
