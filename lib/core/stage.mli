(** Lazy, memoized, traced stage graph.

    The methodology flow (paper Fig. 1) is an explicit pipeline:
    netlist generation, placement, STA, per-position Monte-Carlo SSTA,
    scenario classification, island slicing, level-shifter insertion,
    power.  This module gives each step a {e named, typed node}.  A
    node's compute function pulls its inputs by calling {!get} on the
    upstream nodes it captured.  A node computes at most once per graph
    (thread-safe: a second domain forcing the same node blocks until
    the first stores the result); {e keyed} nodes memoize one instance
    per key (e.g. the Monte-Carlo stage per die position) and may be
    forced concurrently from pool workers for distinct keys.

    Every computation is recorded as a {!Pvtol_util.Trace} span (name,
    dependencies, wall clock, heap allocation), so [--trace] can show
    exactly where a run spent its time and that nothing ran twice.  A
    span's dependencies are the stage instances its compute forced, in
    first-force order — a node's name, or ["name[label]"] per key of a
    keyed node — whether each force computed, hit the memo or waited
    on another domain.

    Stage boundaries are also error boundaries: an exception escaping a
    node's compute function is converted into {!Stage_error} carrying
    the failing stage's name and the chain of nodes that forced it —
    so a Liberty parse error or an infeasible slicing reports {e which}
    pipeline step failed instead of an anonymous exception surfacing
    from the middle of an experiment harness.  The error is memoized
    like a value: re-forcing a failed node re-raises the original
    error. *)

type error = {
  stage : string;       (** name of the node whose compute raised *)
  chain : string list;  (** forcing chain, outermost first, ending at [stage] *)
  message : string;     (** printed form of the underlying exception *)
}

exception Stage_error of error

val error_message : error -> string

(** {2 Graphs} *)

type graph

val create : unit -> graph
(** A fresh graph with its own trace. *)

val trace : graph -> Pvtol_util.Trace.t

(** {2 Nodes} *)

type 'a node

val node : graph -> name:string -> (unit -> 'a) -> 'a node
(** Declare a node.  Node names must be unique per graph
    ([Invalid_argument] otherwise). *)

val name : 'a node -> string

val get : 'a node -> 'a
(** Force the node: compute on first use, memoized thereafter.
    Raises {!Stage_error} if this node (or a dependency) failed. *)

(** {2 Keyed nodes} *)

type ('k, 'a) keyed

val keyed :
  graph ->
  name:string ->
  key_label:('k -> string) ->
  ('k -> 'a) ->
  ('k, 'a) keyed
(** A family of memoized instances, one per key; [key_label] must be
    injective on the keys used.  The trace span for key [k] is named
    ["name[label k]"]. *)

val keyed_batch :
  graph ->
  name:string ->
  key_label:('k -> string) ->
  ('k list -> 'a list) ->
  ('k, 'a) keyed
(** {!keyed} for a stage that computes several keys in one call more
    cheaply than one by one: the compute function gets the keys to
    compute, in request order and without duplicates, and returns one
    value per key in the same order. *)

val get_keyed : ('k, 'a) keyed -> 'k -> 'a

val get_keyed_many : ('k, 'a) keyed -> 'k list -> 'a list
(** The value of every key, in order.  The keys that no domain has
    computed or started are computed together — one call of the compute
    function, one stage compute, one span named
    ["name[l1,l2,...]"] over their labels — and each is memoized under
    its own key; the others are memo hits, or waits on the domain
    computing them.  A compute that forces one of its own keys raises a
    dependency-cycle {!Stage_error}.  [get_keyed k key] is
    [get_keyed_many k [key]]. *)
