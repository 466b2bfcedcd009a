type op =
  | Add | Sub | And | Or | Xor | Sll | Srl | Sra | Slt | Sltu | Mul | Div

type opi = Addi | Andi | Ori | Xori | Slli | Srli | Srai | Slti | Sltiu

type width = B | H | W | D

type cond = Eq | Ne | Lt | Ge | Ltu | Geu

type csr_op = Csrrw | Csrrs | Csrrc

type csr = Mepc | Mcause | Mtvec | Mtval | Mscratch

type t =
  | Lui of Reg.t * int
  | Auipc of Reg.t * int
  | Op of op * Reg.t * Reg.t * Reg.t
  | Opi of opi * Reg.t * Reg.t * int
  | Load of width * bool * Reg.t * Reg.t * int
  | Store of width * Reg.t * Reg.t * int
  | Branch of cond * Reg.t * Reg.t * int
  | Jal of Reg.t * int
  | Jalr of Reg.t * Reg.t * int
  | Fdiv of Reg.t * Reg.t * Reg.t
  | Csr of csr_op * Reg.t * csr * Reg.t
  | Fence_i
  | Ecall
  | Ebreak
  | Mret
  | Illegal of int

let nop = Opi (Addi, Reg.zero, Reg.zero, 0)

let bytes = function B -> 1 | H -> 2 | W -> 4 | D -> 8

let is_branch = function Branch _ -> true | _ -> false

let is_call = function
  | Jal (rd, _) | Jalr (rd, _, _) -> Reg.equal rd Reg.ra
  | _ -> false

let is_return = function
  | Jalr (rd, rs1, _) -> Reg.equal rd Reg.zero && Reg.equal rs1 Reg.ra
  | _ -> false

let is_indirect = function Jalr _ -> true | _ -> false

let is_control = function Branch _ | Jal _ | Jalr _ -> true | _ -> false

let is_store = function Store _ -> true | _ -> false

let may_fault = function
  | Load _ | Store _ | Illegal _ | Ecall | Ebreak -> true
  | _ -> false

let csr_name = function
  | Mepc -> "mepc"
  | Mcause -> "mcause"
  | Mtvec -> "mtvec"
  | Mtval -> "mtval"
  | Mscratch -> "mscratch"

let csr_addr = function
  | Mscratch -> 0x340
  | Mepc -> 0x341
  | Mcause -> 0x342
  | Mtval -> 0x343
  | Mtvec -> 0x305

let csr_of_addr = function
  | 0x340 -> Some Mscratch
  | 0x341 -> Some Mepc
  | 0x342 -> Some Mcause
  | 0x343 -> Some Mtval
  | 0x305 -> Some Mtvec
  | _ -> None

let writes = function
  | Lui (rd, _) | Auipc (rd, _) | Op (_, rd, _, _) | Opi (_, rd, _, _)
  | Load (_, _, rd, _, _) | Jal (rd, _) | Jalr (rd, _, _) | Fdiv (rd, _, _)
  | Csr (_, rd, _, _) ->
      if Reg.equal rd Reg.zero then None else Some rd
  | Store _ | Branch _ | Fence_i | Ecall | Ebreak | Mret | Illegal _ -> None

let non_zero rs = if Reg.equal rs Reg.zero then [] else [ rs ]

let reads = function
  | Lui _ | Auipc _ | Jal _ | Fence_i | Ecall | Ebreak | Mret | Illegal _ -> []
  | Op (_, _, rs1, rs2) | Fdiv (_, rs1, rs2) | Branch (_, rs1, rs2, _)
  | Store (_, rs2, rs1, _) -> non_zero rs1 @ non_zero rs2
  | Opi (_, _, rs1, _) | Load (_, _, _, rs1, _) | Jalr (_, rs1, _)
  | Csr (_, _, _, rs1) ->
      non_zero rs1

let op_name = function
  | Add -> "add" | Sub -> "sub" | And -> "and" | Or -> "or" | Xor -> "xor"
  | Sll -> "sll" | Srl -> "srl" | Sra -> "sra" | Slt -> "slt" | Sltu -> "sltu"
  | Mul -> "mul" | Div -> "div"

let opi_name = function
  | Addi -> "addi" | Andi -> "andi" | Ori -> "ori" | Xori -> "xori"
  | Slli -> "slli" | Srli -> "srli" | Srai -> "srai" | Slti -> "slti"
  | Sltiu -> "sltiu"

let width_name = function B -> "b" | H -> "h" | W -> "w" | D -> "d"

let cond_name = function
  | Eq -> "beq" | Ne -> "bne" | Lt -> "blt" | Ge -> "bge" | Ltu -> "bltu"
  | Geu -> "bgeu"

let to_string i =
  let r = Reg.name in
  match i with
  | Lui (rd, imm) -> Printf.sprintf "lui %s, 0x%x" (r rd) imm
  | Auipc (rd, imm) -> Printf.sprintf "auipc %s, 0x%x" (r rd) imm
  | Op (o, rd, rs1, rs2) ->
      Printf.sprintf "%s %s, %s, %s" (op_name o) (r rd) (r rs1) (r rs2)
  | Opi (o, rd, rs1, imm) ->
      Printf.sprintf "%s %s, %s, %d" (opi_name o) (r rd) (r rs1) imm
  | Load (w, u, rd, rs1, imm) ->
      Printf.sprintf "l%s%s %s, %d(%s)" (width_name w)
        (if u then "u" else "")
        (r rd) imm (r rs1)
  | Store (w, rs2, rs1, imm) ->
      Printf.sprintf "s%s %s, %d(%s)" (width_name w) (r rs2) imm (r rs1)
  | Branch (c, rs1, rs2, off) ->
      Printf.sprintf "%s %s, %s, %d" (cond_name c) (r rs1) (r rs2) off
  | Jal (rd, off) -> Printf.sprintf "jal %s, %d" (r rd) off
  | Jalr (rd, rs1, imm) -> Printf.sprintf "jalr %s, %d(%s)" (r rd) imm (r rs1)
  | Fdiv (rd, rs1, rs2) ->
      Printf.sprintf "fdiv %s, %s, %s" (r rd) (r rs1) (r rs2)
  | Csr (op, rd, csr, rs1) ->
      Printf.sprintf "%s %s, %s, %s"
        (match op with Csrrw -> "csrrw" | Csrrs -> "csrrs" | Csrrc -> "csrrc")
        (r rd) (csr_name csr) (r rs1)
  | Fence_i -> "fence.i"
  | Ecall -> "ecall"
  | Ebreak -> "ebreak"
  | Mret -> "mret"
  | Illegal raw -> Printf.sprintf ".word 0x%08x  # illegal" raw
