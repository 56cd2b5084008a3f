(** Gate-level construction context shared by all datapath generators.

    A [t] wraps a {!Pvtol_netlist.Netlist.Builder} together with the
    pipeline stage and functional-unit name to tag emitted cells with;
    {!within} rebinds the tags for a sub-block.  Buses are plain
    [net array]s, least-significant bit first. *)

open Pvtol_netlist

type net = Netlist.net_id
type bus = net array

type t

val create :
  ?design_name:string -> seed:int -> Pvtol_stdcell.Cell.library -> t

val builder : t -> Netlist.Builder.t
val rng : t -> Pvtol_util.Srng.t

val within : t -> ?stage:Stage.t -> ?unit_name:string -> unit -> t
(** A context sharing the same builder with different tags. *)

val stage : t -> Stage.t
val unit_name : t -> string

(** {2 Single gates}  Each returns the output net. *)

val gate :
  t -> ?drive:Pvtol_stdcell.Cell.drive -> Pvtol_stdcell.Kind.t -> net array -> net

val inv : t -> net -> net
val buf : t -> ?drive:Pvtol_stdcell.Cell.drive -> net -> net
val and2 : t -> net -> net -> net
val or2 : t -> net -> net -> net
val xor2 : t -> net -> net -> net
val xnor2 : t -> net -> net -> net
val mux2 : t -> net -> net -> sel:net -> net
(** [mux2 a b ~sel] = if sel then b else a *)

val dff_deferred : t -> net * (net -> unit)
(** Creates a flop whose D input is connected later:
    returns its Q net and a patch function that must be called exactly
    once with the real D net before the netlist is frozen.  Closes
    sequential feedback loops such as a register's hold mux. *)

val tie0 : t -> net
val tie1 : t -> net

(** {2 Buses} *)

val inputs : t -> string -> int -> bus
(** [inputs t name w] declares w primary inputs [name[0..w-1]]. *)

val outputs : t -> string -> bus -> unit

val reg_bus : t -> bus -> bus
(** One DFF per bit. *)

val mux2_bus : t -> bus -> bus -> sel:net -> bus

(** {2 Fanout management} *)

val fanout_tree : t -> ?fanout:int -> net -> int -> net array
(** [fanout_tree t net n] returns [n] buffered copies of [net], built
    as a balanced tree of X2 buffers with at most [fanout] (default 8)
    sinks per driver.  Used for high-fanout control signals; register-file
    structures deliberately use a high [fanout] so their paths stay
    RC-dominated, as in synthesized (non-custom) register files. *)

val and_tree : t -> net list -> net
(** Balanced AND reduction (returns tie1 for an empty list). *)

val or_tree : t -> net list -> net
