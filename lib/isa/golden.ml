type priv = User | Machine

type memory = {
  load : priv:priv -> addr:int -> size:int -> (int, Trap.cause) result;
  store : priv:priv -> addr:int -> size:int -> value:int -> (unit, Trap.cause) result;
  fetch : priv:priv -> addr:int -> (int, Trap.cause) result;
}

type t = {
  mem : memory;
  regs : int array;
  mutable pc : int;
  mutable priv : priv;
  mutable mepc : int;
  mutable mcause : int;
  mutable mtval : int;
  mutable mtvec : int;
  mutable mscratch : int;
  mutable mpp : priv;  (** privilege to return to on mret *)
}

let create ?(pc = 0) ?(priv = Machine) ?(mtvec = 0) mem =
  { mem; regs = Array.make 32 0; pc; priv; mepc = 0; mcause = 0; mtval = 0;
    mtvec; mscratch = 0; mpp = User }

let reset ?(pc = 0) ?(priv = Machine) ?(mtvec = 0) t =
  Array.fill t.regs 0 32 0;
  t.pc <- pc;
  t.priv <- priv;
  t.mepc <- 0;
  t.mcause <- 0;
  t.mtval <- 0;
  t.mtvec <- mtvec;
  t.mscratch <- 0;
  t.mpp <- User

let pc t = t.pc
let priv t = t.priv
let reg t r = if Reg.to_int r = 0 then 0 else t.regs.(Reg.to_int r)

let set_reg t r v = if Reg.to_int r <> 0 then t.regs.(Reg.to_int r) <- v

let set_pc t pc = t.pc <- pc
let set_priv t p = t.priv <- p
let mepc t = t.mepc
let mcause t = t.mcause
let set_mtvec t v = t.mtvec <- v

let copy t = { t with regs = Array.copy t.regs }

let blit ~src ~dst =
  Array.blit src.regs 0 dst.regs 0 32;
  dst.pc <- src.pc;
  dst.priv <- src.priv;
  dst.mepc <- src.mepc;
  dst.mcause <- src.mcause;
  dst.mtval <- src.mtval;
  dst.mtvec <- src.mtvec;
  dst.mscratch <- src.mscratch;
  dst.mpp <- src.mpp

type step = {
  s_pc : int;
  s_insn : Insn.t;
  s_next_pc : int;
  s_trap : Trap.cause option;
  s_taken : bool option;
  s_target : int option;
  s_mem_addr : int option;
  s_loaded : int option;
}

let alu = Exec_alu.alu
let alui = Exec_alu.alui
let cond_holds = Exec_alu.cond_holds
let sign_extend = Exec_alu.sign_extend

let load_value w unsigned raw =
  let bits = 8 * Insn.bytes w in
  if unsigned || w = Insn.D then raw else sign_extend bits raw

let enter_trap t cause tval =
  if t.priv = Machine && t.mcause <> 0 && t.pc = t.mtvec then
    failwith "Golden: double trap in handler";
  t.mepc <- t.pc;
  t.mcause <- Trap.code cause;
  t.mtval <- tval;
  t.mpp <- t.priv;
  t.priv <- Machine;
  t.pc <- t.mtvec

let step_decoded t ~fetched =
  let s_pc = t.pc in
  let finish ?(next = s_pc + 4) ?trap ?taken ?target ?mem_addr ?loaded insn =
    (match trap with
    | Some (cause, tval) -> enter_trap t cause tval
    | None -> t.pc <- next);
    { s_pc; s_insn = insn; s_next_pc = t.pc;
      s_trap = Option.map fst trap; s_taken = taken; s_target = target;
      s_mem_addr = mem_addr; s_loaded = loaded }
  in
  match fetched with
  | Error cause ->
      (* Fetch fault: attribute it to a pseudo-instruction. *)
      finish ~trap:(cause, s_pc) (Insn.Illegal 0)
  | Ok (word, insn) -> (
      match insn with
      | Insn.Lui (rd, imm20) ->
          set_reg t rd (sign_extend 32 (imm20 lsl 12));
          finish insn
      | Insn.Auipc (rd, imm20) ->
          set_reg t rd (s_pc + sign_extend 32 (imm20 lsl 12));
          finish insn
      | Insn.Op (op, rd, rs1, rs2) ->
          set_reg t rd (alu op (reg t rs1) (reg t rs2));
          finish insn
      | Insn.Opi (op, rd, rs1, imm) ->
          set_reg t rd (alui op (reg t rs1) imm);
          finish insn
      | Insn.Fdiv (rd, rs1, rs2) ->
          let b = reg t rs2 in
          set_reg t rd (if b = 0 then -1 else reg t rs1 / b);
          finish insn
      | Insn.Load (w, u, rd, rs1, imm) -> (
          let addr = reg t rs1 + imm in
          let size = Insn.bytes w in
          if addr mod size <> 0 then
            finish ~trap:(Trap.Load_misalign, addr) ~mem_addr:addr insn
          else
            match t.mem.load ~priv:t.priv ~addr ~size with
            | Error cause -> finish ~trap:(cause, addr) ~mem_addr:addr insn
            | Ok raw ->
                let v = load_value w u raw in
                set_reg t rd v;
                finish ~mem_addr:addr ~loaded:v insn)
      | Insn.Store (w, rs2, rs1, imm) -> (
          let addr = reg t rs1 + imm in
          let size = Insn.bytes w in
          if addr mod size <> 0 then
            finish ~trap:(Trap.Store_misalign, addr) ~mem_addr:addr insn
          else
            match
              t.mem.store ~priv:t.priv ~addr ~size ~value:(reg t rs2)
            with
            | Error cause -> finish ~trap:(cause, addr) ~mem_addr:addr insn
            | Ok () -> finish ~mem_addr:addr insn)
      | Insn.Branch (c, rs1, rs2, off) ->
          let taken = cond_holds c (reg t rs1) (reg t rs2) in
          let target = s_pc + off in
          if taken then finish ~next:target ~taken:true ~target insn
          else finish ~taken:false insn
      | Insn.Jal (rd, off) ->
          let target = s_pc + off in
          set_reg t rd (s_pc + 4);
          finish ~next:target ~target insn
      | Insn.Jalr (rd, rs1, imm) ->
          let target = (reg t rs1 + imm) land lnot 1 in
          set_reg t rd (s_pc + 4);
          finish ~next:target ~target insn
      | Insn.Csr (op, rd, csr, rs1) ->
          let read () =
            match csr with
            | Insn.Mepc -> t.mepc
            | Insn.Mcause -> t.mcause
            | Insn.Mtvec -> t.mtvec
            | Insn.Mtval -> t.mtval
            | Insn.Mscratch -> t.mscratch
          in
          let write v =
            match csr with
            | Insn.Mepc -> t.mepc <- v
            | Insn.Mcause -> t.mcause <- v
            | Insn.Mtvec -> t.mtvec <- v
            | Insn.Mtval -> t.mtval <- v
            | Insn.Mscratch -> t.mscratch <- v
          in
          if t.priv = User then
            (* machine CSRs are privileged *)
            finish ~trap:(Trap.Illegal_instruction, word) insn
          else begin
            let old = read () in
            let src = reg t rs1 in
            (match op with
            | Insn.Csrrw -> write src
            | Insn.Csrrs -> if Reg.to_int rs1 <> 0 then write (old lor src)
            | Insn.Csrrc ->
                if Reg.to_int rs1 <> 0 then write (old land lnot src));
            set_reg t rd old;
            finish insn
          end
      | Insn.Fence_i -> finish insn
      | Insn.Ecall ->
          let cause =
            match t.priv with
            | User -> Trap.Ecall_from_user
            | Machine -> Trap.Ecall_from_machine
          in
          finish ~trap:(cause, 0) insn
      | Insn.Ebreak -> finish ~trap:(Trap.Breakpoint, s_pc) insn
      | Insn.Mret ->
          t.priv <- t.mpp;
          t.mcause <- 0;
          finish ~next:t.mepc ~target:t.mepc insn
      | Insn.Illegal _ -> finish ~trap:(Trap.Illegal_instruction, word) insn)

let step t =
  step_decoded t
    ~fetched:
      (match t.mem.fetch ~priv:t.priv ~addr:t.pc with
      | Error cause -> Error cause
      | Ok word -> Ok (word, Decode.decode word))

let run t ?(fuel = 10_000) ~stop () =
  let rec go acc fuel =
    if fuel = 0 || stop t then List.rev acc
    else
      let s = step t in
      let acc = s :: acc in
      if stop t then List.rev acc else go acc (fuel - 1)
  in
  go [] fuel
