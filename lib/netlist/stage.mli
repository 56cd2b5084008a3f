(** Pipeline-stage tags.

    Every cell of the design belongs to one of the six architectural
    groups of the paper's Table 1; the SSTA engine reports per-stage
    critical-path distributions over the four *timing* stages (fetch,
    decode, execute, write-back), with register file accesses folded
    into the stages that exercise them (as in the paper, where the
    fully synthesized register file is read in decode and written in
    write-back). *)

type t = Fetch | Decode | Execute | Writeback | Pipe_regs | Reg_file

val all : t list

val name : t -> string
val of_name : string -> t option
val index : t -> int
val equal : t -> t -> bool
