(** Minimal ASCII table renderer for the experiment harness output.
    Every table/figure of the paper is printed through this module so
    the bench output is uniform and diffable. *)

type t

val create : header:string list -> t
val add_row : t -> string list -> unit
val add_sep : t -> unit
(** Insert a horizontal separator between row groups. *)

val render : t -> string
(** Render the first column left-aligned, the rest right-aligned. *)

val fcell : ?decimals:int -> float -> string
(** Float cell formatting helper, fixed [decimals] (default 3). *)

val pcell : ?decimals:int -> float -> string
(** Percent cell: [pcell 0.0835 = "8.35%"] with default 2 decimals. *)

val bar_chart :
  ?width:int -> ?unit_label:string -> (string * float) list -> string
(** Horizontal ASCII bar chart (the harness's stand-in for the paper's
    bar figures): one labelled bar per entry, scaled to the maximum
    value.  [width] is the longest bar in characters (default 46). *)
