(** Minimal JSON tree: one shared emitter and parser for every report
    the tools write or read (the run ledger, perfbench's [--json]
    record, the [pvtol report] / [pvtol bench pairs] readers).

    The emitter escapes strings correctly and {e rejects} non-finite
    floats — a NaN or infinity in a benchmark estimate or a ledger
    field is a measurement bug, and silently writing [nan] would
    produce a file no JSON parser accepts.  The parser is a plain
    recursive-descent reader of standard JSON (objects, arrays,
    strings with escapes incl. [\uXXXX] surrogate pairs, numbers,
    booleans, null); it exists because the repo deliberately carries
    no third-party JSON dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** key order is preserved on output *)

val to_string : t -> string
(** Pretty-printed (2-space indent, stable key order) JSON text ending
    in a newline.  Floats are written exactly: the shortest of 15, 16
    or 17 significant digits that parses back to the same bits
    (integral values as [3.0]).  Raises [Invalid_argument] if the tree
    contains a NaN or infinite float. *)

val float_or_null : float -> t
(** [Float f] for finite [f], [Null] otherwise — for values that are
    legitimately undefined, such as the CI half-width of a stratum with
    fewer than two samples. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document; [Error] carries a message with the
    byte offset of the failure.  Numbers without [.], [e] or [E] that
    fit in an OCaml [int] parse as {!Int}, everything else as
    {!Float}. *)

val write_file : string -> t -> unit
val read_file : string -> (t, string) result
(** [Error] for unreadable files as well as parse failures. *)

(** {2 Accessors (total, for report readers)} *)

val member : string -> t -> t option
(** Field of an {!Obj}; [None] for missing fields and non-objects. *)

val to_float : t -> float option
(** {!Int} and {!Float} both convert. *)

val to_int : t -> int option
val to_str : t -> string option
val to_list : t -> t list option
val to_obj : t -> (string * t) list option
