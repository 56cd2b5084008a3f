(** Structured leveled logging with a mutex-protected sink.

    Replaces ad-hoc [Printf.eprintf] calls scattered through the
    libraries: every message carries a level, is filtered against the
    process threshold ([PVTOL_LOG] environment variable, default
    [warn]), and is written through one sink under a mutex so lines
    from concurrent domains never interleave.

    [PVTOL_LOG] accepts [quiet], [error], [warn], [info] or [debug]
    (case-insensitive); anything else leaves the default. *)

type level = Error | Warn | Info | Debug

val level_of_string : string -> level option

val set_level : level -> unit
(** Messages above this level are dropped. *)

val err : ('a, unit, string, unit) format4 -> 'a
val warn : ('a, unit, string, unit) format4 -> 'a
val info : ('a, unit, string, unit) format4 -> 'a
val debug : ('a, unit, string, unit) format4 -> 'a

type once
(** One-shot latch for warn-once call sites, backed by an [Atomic.t]:
    safe to race from any number of domains, fires exactly once. *)

val once : unit -> once

val warn_once : once -> ('a, unit, string, unit) format4 -> 'a
(** Emit the warning the first time this latch is hit (if [Warn] is
    enabled at that moment); later calls are no-ops. *)

val set_sink : (level -> string -> unit) -> unit
(** Replace the output sink (tests, custom routing).  The sink
    receives the raw message; serialization is the sink's concern —
    {!default_sink} takes the global log mutex. *)

val default_sink : level -> string -> unit
(** The standard sink: ["pvtol: [<level>] <msg>\n"] to stderr,
    flushed, under the log mutex. *)
