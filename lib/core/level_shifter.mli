(** Level-shifter insertion (paper §4.6).

    A net needs a level shifter when, in some violation scenario, its
    driver sits in a 1.0V domain while a sink sits in a 1.2V domain:
    with nested islands raised in index order, that is exactly when the
    sink's domain index is smaller than the driver's.  Only low-to-high
    crossings are shifted — "we retain only the nets connecting low- to
    high-Vdd domains as candidate for level-shifter insertion, in order
    to avoid the static power overhead for non-fully switched-off pMOS
    transistors in the high-Vdd domain".

    One shifter is shared by all sinks of a net that fall in the same
    domain; the shifter itself is placed (incrementally, see
    {!Pvtol_place.Incremental.insert}) as near as the free space allows
    to the served sink nearest the driver among those in the sinks'
    earliest domain, and belongs to that domain, where its high-side
    supply rail is available. *)

open Pvtol_netlist

type t = {
  netlist : Netlist.t;           (** original cells (ids preserved) + shifters *)
  placement : Pvtol_place.Placement.t;   (** incrementally legalized *)
  partition : Island.partition;
  domains : int array;           (** per cell of the new netlist *)
  first_ls : Netlist.cell_id;    (** shifter ids are [first_ls ..] *)
  count : int;
  per_domain : (int * int) list; (** (domain, shifters assigned to it) *)
  ls_area : float;               (** um^2 *)
  ls_area_frac : float;          (** of the original design area *)
  displacement : Pvtol_place.Incremental.stats;
}

val insert :
  Island.partition -> Pvtol_place.Placement.t -> Netlist.t -> t
(** Analyse crossings, rebuild the netlist with shifters, and legalize
    the placement incrementally.  The input netlist/placement pair must
    be consistent.  The result's netlist passes [Netlist.check]. *)

val vdd_assignment :
  t -> raised:int -> Netlist.cell_id -> float
(** Supply of any cell (original or shifter) of the shifted design when
    islands [1..raised] are high. *)

val count_domain_crossings : Netlist.t -> domains:int array -> int
(** Shifters a per-cell domain assignment (1-based, nested, raised in
    index order) requires: one per net whose driver is in a domain
    above 1 and has sinks in strictly earlier domains.  Pad-driven nets
    never need one.  {!insert} places exactly these shifters. *)

val count_crossings : Island.partition -> Pvtol_place.Placement.t -> Netlist.t -> int
(** {!count_domain_crossings} of a partition's island domains, without
    building the modified design (used for quick design-space
    exploration). *)
