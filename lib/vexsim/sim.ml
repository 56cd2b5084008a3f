type stats = {
  cycles : int;
  ops_executed : int;
  slot_active : int array;
  mul_ops : int;
  mem_ops : int;
  branches_taken : int;
}

type t = {
  program : Isa.bundle array;
  regs : int array;
  mem : int array;
  mutable pc : int;
  mutable trace_rev : Int32.t array list;
}

let create program =
  {
    program;
    regs = Array.make Isa.n_regs 0;
    mem = Array.make 4096 0;
    pc = 0;
    trace_rev = [];
  }

let mask32 v = v land 0xFFFFFFFF

let sign32 v =
  let v = mask32 v in
  if v land 0x80000000 <> 0 then v - (1 lsl 32) else v

let set_reg t r v = t.regs.(r) <- mask32 v
let get_reg t r = t.regs.(r)

let store t addr v = t.mem.(addr mod Array.length t.mem) <- mask32 v
let load t addr = t.mem.(addr mod Array.length t.mem)

let sext8 v = if v land 0x80 <> 0 then v - 256 else v

let run ?(max_cycles = 100_000) t =
  let cycles = ref 0 in
  let ops = ref 0 in
  let slot_active = Array.make Isa.slots 0 in
  let mul_ops = ref 0 and mem_ops = ref 0 and taken = ref 0 in
  while t.pc >= 0 && t.pc < Array.length t.program && !cycles < max_cycles do
    let bundle = t.program.(t.pc) in
    t.trace_rev <- Isa.encode_bundle bundle :: t.trace_rev;
    incr cycles;
    (* Read phase: capture all operands before any write. *)
    let reads =
      Array.map
        (fun (o : Isa.op) -> (t.regs.(o.Isa.rs1), t.regs.(o.Isa.rs2)))
        bundle
    in
    let next_pc = ref (t.pc + 1) in
    Array.iteri
      (fun slot (o : Isa.op) ->
        let v1, v2 = reads.(slot) in
        let result =
          match o.Isa.opcode with
          | Isa.Nop -> None
          | Isa.Add -> Some (v1 + v2)
          | Isa.Sub -> Some (v1 - v2)
          | Isa.And -> Some (v1 land v2)
          | Isa.Or -> Some (v1 lor v2)
          | Isa.Xor -> Some (v1 lxor v2)
          | Isa.Shl -> Some (v1 lsl (v2 land 31))
          | Isa.Shr -> Some (mask32 v1 lsr (v2 land 31))
          | Isa.Mul -> Some (v1 * v2)
          | Isa.Cmplt -> Some (if sign32 v1 < sign32 v2 then 1 else 0)
          | Isa.Cmpeq -> Some (if mask32 v1 = mask32 v2 then 1 else 0)
          | Isa.Movi -> Some (sext8 o.Isa.imm)
          | Isa.Ld ->
            incr mem_ops;
            Some (load t (mask32 (v1 + sext8 o.Isa.imm)))
          | Isa.St ->
            incr mem_ops;
            store t (mask32 (v1 + sext8 o.Isa.imm)) v2;
            None
          | Isa.Brz ->
            if mask32 v1 = 0 then begin
              incr taken;
              next_pc := o.Isa.imm
            end;
            None
          | Isa.Brnz ->
            if mask32 v1 <> 0 then begin
              incr taken;
              next_pc := o.Isa.imm
            end;
            None
        in
        if o.Isa.opcode <> Isa.Nop then begin
          incr ops;
          slot_active.(slot) <- slot_active.(slot) + 1
        end;
        if o.Isa.opcode = Isa.Mul then incr mul_ops;
        match result with
        | Some v when Isa.writes_reg o.Isa.opcode -> set_reg t o.Isa.rd v
        | Some _ | None -> ())
      bundle;
    t.pc <- !next_pc
  done;
  {
    cycles = !cycles;
    ops_executed = !ops;
    slot_active;
    mul_ops = !mul_ops;
    mem_ops = !mem_ops;
    branches_taken = !taken;
  }

let trace t = List.rev t.trace_rev

let ipc stats =
  if stats.cycles = 0 then 0.0
  else float_of_int stats.ops_executed /. float_of_int stats.cycles
