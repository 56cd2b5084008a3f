(** Structured span tracing for the stage-graph flow.

    A trace collects one {!span} per completed unit of work: its name,
    its dependencies, wall-clock start/duration, and the
    minor/major-heap words allocated while it ran (from
    [Gc.quick_stat]; in a multi-domain program the GC counters are
    per-domain, so allocation figures are attributed to the domain that
    computed the span).  Appending is mutex-protected, so spans may be
    recorded concurrently from pool workers. *)

type span = {
  name : string;
  deps : string list;   (** upstream stage names *)
  start_s : float;      (** seconds since the trace was created *)
  dur_s : float;        (** wall clock, including nested spans forced inside *)
  self_s : float;
      (** [dur_s] minus the spans this one forced on the same domain —
          the stage's own work *)
  minor_words : float;
  major_words : float;
  self_minor_words : float;
  self_major_words : float;
      (** the word counts minus those of the spans this one forced on
          the same domain, floored at 0 like [self_s] — the stage's own
          allocation *)
  promoted_words : float;
      (** words promoted minor→major while the span ran *)
  minor_collections : int;
      (** minor GCs that completed while the span ran (per-domain
          counter deltas, like the word counts) *)
  major_collections : int;
  compactions : int;
  ok : bool;            (** false if the traced function raised *)
  domain : int;         (** id of the domain that computed the span *)
}

type t

val create : unit -> t

val span : t -> name:string -> ?deps:(unit -> string list) -> (unit -> 'a) -> 'a
(** Run the function and record a span (also on exception, with
    [ok = false]; the exception is re-raised).  [deps] is read when the
    function returns, so it can list what the function used. *)

val spans : t -> span list
(** Completion order: every span finishes after the spans it forced. *)

val sort_by_start : t -> span list
(** Spans sorted by [start_s], stably (ties keep completion order) —
    the canonical order for exporters, so none re-sorts ad hoc. *)

val find : t -> string -> span option
val count : t -> string -> int

val duplicates : t -> string list
(** Span names recorded more than once — empty iff every stage ran at
    most once. *)

val pp : Format.formatter -> t -> unit
(** Pretty span report (one line per span, completion order); its
    [major-alloc] column is the span's self major allocation. *)

val span_json : span -> Json.t
(** One span as a JSON object with every field of {!span} — the
    element of the run ledger's [stages] list. *)

val to_chrome_json : t -> string
(** Chrome trace-event (chrome://tracing / Perfetto) JSON: an array of
    complete ("X") events in {!sort_by_start} order, one per span, on
    the track of the domain that computed it ([tid]), plus metadata
    events naming the process and each domain track.  Timestamps and
    durations are microseconds since the trace was created. *)

val write_chrome_json : t -> string -> unit
