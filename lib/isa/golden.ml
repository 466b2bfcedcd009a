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

(* Register-file access on any 32-entry file: x0 reads as 0 and is never
   written. *)
let get regs r = if Reg.to_int r = 0 then 0 else regs.(Reg.to_int r)

let set regs r v = if Reg.to_int r <> 0 then regs.(Reg.to_int r) <- v

let pc t = t.pc
let priv t = t.priv
let reg t r = get t.regs r
let set_pc t pc = t.pc <- pc
let set_priv t p = t.priv <- p
let mepc t = t.mepc
let mcause t = t.mcause

let copy t = { t with regs = Array.copy t.regs }

(* A typed loop, not [Array.blit]: on a long-lived (major-heap) [dst] the
   runtime's blit runs the write barrier on every element, not knowing
   they are ints. *)
let blit ~src ~dst =
  for i = 0 to 31 do
    dst.regs.(i) <- src.regs.(i)
  done;
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

(* Shift amounts use the low 6 bits of the operand, as on RV64. *)
let shamt v = v land 63

let flip x = x lxor min_int

let alu op a b =
  match op with
  | Insn.Add -> a + b
  | Insn.Sub -> a - b
  | Insn.And -> a land b
  | Insn.Or -> a lor b
  | Insn.Xor -> a lxor b
  | Insn.Sll -> a lsl shamt b
  | Insn.Srl -> a lsr shamt b
  | Insn.Sra -> a asr shamt b
  | Insn.Slt -> if a < b then 1 else 0
  | Insn.Sltu -> if flip a < flip b then 1 else 0
  | Insn.Mul -> a * b
  | Insn.Div -> if b = 0 then -1 else a / b

let alui op a imm =
  match op with
  | Insn.Addi -> a + imm
  | Insn.Andi -> a land imm
  | Insn.Ori -> a lor imm
  | Insn.Xori -> a lxor imm
  | Insn.Slli -> a lsl shamt imm
  | Insn.Srli -> a lsr shamt imm
  | Insn.Srai -> a asr shamt imm
  | Insn.Slti -> if a < imm then 1 else 0
  | Insn.Sltiu -> if flip a < flip imm then 1 else 0

let cond_holds c a b =
  match c with
  | Insn.Eq -> a = b
  | Insn.Ne -> a <> b
  | Insn.Lt -> a < b
  | Insn.Ge -> a >= b
  | Insn.Ltu -> flip a < flip b
  | Insn.Geu -> flip a >= flip b

let sign_extend bits v =
  let shift = Sys.int_size - bits in
  (v lsl shift) asr shift

let load_value w unsigned raw =
  let bits = 8 * Insn.bytes w in
  if unsigned || w = Insn.D then raw else sign_extend bits raw

let exec regs ~pc insn =
  match insn with
  | Insn.Lui (rd, imm20) ->
      set regs rd (sign_extend 32 (imm20 lsl 12));
      pc + 4
  | Insn.Auipc (rd, imm20) ->
      set regs rd (pc + sign_extend 32 (imm20 lsl 12));
      pc + 4
  | Insn.Op (op, rd, rs1, rs2) ->
      set regs rd (alu op (get regs rs1) (get regs rs2));
      pc + 4
  | Insn.Opi (op, rd, rs1, imm) ->
      set regs rd (alui op (get regs rs1) imm);
      pc + 4
  | Insn.Fdiv (rd, rs1, rs2) ->
      let b = get regs rs2 in
      set regs rd (if b = 0 then -1 else get regs rs1 / b);
      pc + 4
  | Insn.Jal (rd, off) ->
      set regs rd (pc + 4);
      pc + off
  | Insn.Jalr (rd, rs1, imm) ->
      let target = (get regs rs1 + imm) land lnot 1 in
      set regs rd (pc + 4);
      target
  | Insn.Load _ | Insn.Store _ | Insn.Branch _ | Insn.Csr _ | Insn.Fence_i
  | Insn.Ecall | Insn.Ebreak | Insn.Mret | Insn.Illegal _ ->
      invalid_arg "Golden.exec: not a register-file instruction"

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
      | Insn.Lui _ | Insn.Auipc _ | Insn.Op _ | Insn.Opi _ | Insn.Fdiv _ ->
          ignore (exec t.regs ~pc:s_pc insn);
          finish insn
      | Insn.Jal _ | Insn.Jalr _ ->
          let target = exec t.regs ~pc:s_pc insn in
          finish ~next:target ~target insn
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
                set t.regs rd v;
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
            set t.regs rd old;
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
