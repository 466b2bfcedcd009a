let sign_extend bits v =
  let shift = Sys.int_size - bits in
  (v lsl shift) asr shift

(* The fields of a (masked) word.  [decode] extracts each one in the arms
   whose format has it, so a word costs only the fields its instruction
   reads, and an [Insn.Illegal] is built only for an illegal word. *)

let rd w = Reg.x ((w lsr 7) land 0x1F)
let rs1 w = Reg.x ((w lsr 15) land 0x1F)
let rs2 w = Reg.x ((w lsr 20) land 0x1F)
let funct3 w = (w lsr 12) land 0x7
let funct7 w = (w lsr 25) land 0x7F
let imm_i w = sign_extend 12 ((w lsr 20) land 0xFFF)

let imm_s w =
  sign_extend 12 ((((w lsr 25) land 0x7F) lsl 5) lor ((w lsr 7) land 0x1F))

let imm_b w =
  let b12 = (w lsr 31) land 1
  and b11 = (w lsr 7) land 1
  and b10_5 = (w lsr 25) land 0x3F
  and b4_1 = (w lsr 8) land 0xF in
  sign_extend 13 ((b12 lsl 12) lor (b11 lsl 11) lor (b10_5 lsl 5) lor (b4_1 lsl 1))

let imm_u w = (w lsr 12) land 0xFFFFF

let imm_j w =
  let b20 = (w lsr 31) land 1
  and b19_12 = (w lsr 12) land 0xFF
  and b11 = (w lsr 20) land 1
  and b10_1 = (w lsr 21) land 0x3FF in
  sign_extend 21
    ((b20 lsl 20) lor (b19_12 lsl 12) lor (b11 lsl 11) lor (b10_1 lsl 1))

let op o w = Insn.Op (o, rd w, rs1 w, rs2 w)
let opi o w = Insn.Opi (o, rd w, rs1 w, imm_i w)
let shift o w = Insn.Opi (o, rd w, rs1 w, (w lsr 20) land 0x3F)
let load width unsigned w = Insn.Load (width, unsigned, rd w, rs1 w, imm_i w)
let store width w = Insn.Store (width, rs2 w, rs1 w, imm_s w)
let branch c w = Insn.Branch (c, rs1 w, rs2 w, imm_b w)

let csr o w =
  match Insn.csr_of_addr ((w lsr 20) land 0xFFF) with
  | Some c -> Insn.Csr (o, rd w, c, rs1 w)
  | None -> Insn.Illegal w

let decode word =
  let w = word land 0xFFFFFFFF in
  match w land 0x7F with
  | 0b0110111 -> Insn.Lui (rd w, imm_u w)
  | 0b0010111 -> Insn.Auipc (rd w, imm_u w)
  | 0b0110011 -> (
      match (funct7 w, funct3 w) with
      | 0b0000000, 0b000 -> op Insn.Add w
      | 0b0100000, 0b000 -> op Insn.Sub w
      | 0b0000000, 0b001 -> op Insn.Sll w
      | 0b0000000, 0b010 -> op Insn.Slt w
      | 0b0000000, 0b011 -> op Insn.Sltu w
      | 0b0000000, 0b100 -> op Insn.Xor w
      | 0b0000000, 0b101 -> op Insn.Srl w
      | 0b0100000, 0b101 -> op Insn.Sra w
      | 0b0000000, 0b110 -> op Insn.Or w
      | 0b0000000, 0b111 -> op Insn.And w
      | 0b0000001, 0b000 -> op Insn.Mul w
      | 0b0000001, 0b100 -> op Insn.Div w
      | _ -> Insn.Illegal w)
  | 0b0010011 -> (
      match funct3 w with
      | 0b000 -> opi Insn.Addi w
      | 0b010 -> opi Insn.Slti w
      | 0b011 -> opi Insn.Sltiu w
      | 0b100 -> opi Insn.Xori w
      | 0b110 -> opi Insn.Ori w
      | 0b111 -> opi Insn.Andi w
      | 0b001 ->
          if funct7 w lsr 1 = 0 then shift Insn.Slli w else Insn.Illegal w
      | _ (* 0b101 *) -> (
          match funct7 w lsr 1 with
          | 0 -> shift Insn.Srli w
          | 0b010000 -> shift Insn.Srai w
          | _ -> Insn.Illegal w))
  | 0b0000011 -> (
      match funct3 w with
      | 0b000 -> load Insn.B false w
      | 0b001 -> load Insn.H false w
      | 0b010 -> load Insn.W false w
      | 0b011 -> load Insn.D false w
      | 0b100 -> load Insn.B true w
      | 0b101 -> load Insn.H true w
      | 0b110 -> load Insn.W true w
      | _ -> Insn.Illegal w)
  | 0b0100011 -> (
      match funct3 w with
      | 0b000 -> store Insn.B w
      | 0b001 -> store Insn.H w
      | 0b010 -> store Insn.W w
      | 0b011 -> store Insn.D w
      | _ -> Insn.Illegal w)
  | 0b1100011 -> (
      match funct3 w with
      | 0b000 -> branch Insn.Eq w
      | 0b001 -> branch Insn.Ne w
      | 0b100 -> branch Insn.Lt w
      | 0b101 -> branch Insn.Ge w
      | 0b110 -> branch Insn.Ltu w
      | 0b111 -> branch Insn.Geu w
      | _ -> Insn.Illegal w)
  | 0b1101111 -> Insn.Jal (rd w, imm_j w)
  | 0b1100111 ->
      if funct3 w = 0 then Insn.Jalr (rd w, rs1 w, imm_i w) else Insn.Illegal w
  | 0b1010011 ->
      if funct7 w = 0b0001101 && funct3 w = 0b111 then
        Insn.Fdiv (rd w, rs1 w, rs2 w)
      else Insn.Illegal w
  | 0b0001111 -> if funct3 w = 0b001 then Insn.Fence_i else Insn.Illegal w
  | 0b1110011 -> (
      match funct3 w with
      | 0 -> (
          match (w lsr 20) land 0xFFF with
          | 0b000000000000 -> Insn.Ecall
          | 0b000000000001 -> Insn.Ebreak
          | 0b001100000010 -> Insn.Mret
          | _ -> Insn.Illegal w)
      | 0b001 -> csr Insn.Csrrw w
      | 0b010 -> csr Insn.Csrrs w
      | 0b011 -> csr Insn.Csrrc w
      | _ -> Insn.Illegal w)
  | _ -> Insn.Illegal w
