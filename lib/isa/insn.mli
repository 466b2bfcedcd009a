(** Instruction AST for the RV64 subset.

    The subset spans every trigger class of the paper's Table 3:
    sequential arithmetic (integer and a long-latency FDIV standing in for
    the floating-point pipe), loads/stores of all widths, conditional
    branches, direct and indirect jumps, calls and returns, and the
    exception-raising instructions (illegal encodings, ecall, ebreak). *)

type op =
  | Add | Sub | And | Or | Xor | Sll | Srl | Sra | Slt | Sltu | Mul | Div

type opi = Addi | Andi | Ori | Xori | Slli | Srli | Srai | Slti | Sltiu

type width = B | H | W | D
(** Memory access widths: 1, 2, 4, 8 bytes. *)

type cond = Eq | Ne | Lt | Ge | Ltu | Geu

type csr_op = Csrrw | Csrrs | Csrrc

type csr = Mepc | Mcause | Mtvec | Mtval | Mscratch

type t =
  | Lui of Reg.t * int          (** [Lui (rd, imm20)] *)
  | Auipc of Reg.t * int        (** [Auipc (rd, imm20)] *)
  | Op of op * Reg.t * Reg.t * Reg.t
  | Opi of opi * Reg.t * Reg.t * int
  | Load of width * bool * Reg.t * Reg.t * int
      (** [Load (w, unsigned, rd, rs1, imm)] *)
  | Store of width * Reg.t * Reg.t * int
      (** [Store (w, rs2, rs1, imm)]: mem[rs1+imm] <- rs2 *)
  | Branch of cond * Reg.t * Reg.t * int
      (** byte offset relative to the branch's own address *)
  | Jal of Reg.t * int          (** byte offset *)
  | Jalr of Reg.t * Reg.t * int
  | Fdiv of Reg.t * Reg.t * Reg.t
      (** long-latency divide occupying the FPU port *)
  | Csr of csr_op * Reg.t * csr * Reg.t
      (** [Csr (op, rd, csr, rs1)]: read-modify-write of a machine CSR.
          Serializing: the pipeline never executes CSR accesses
          speculatively. *)
  | Fence_i
  | Ecall
  | Ebreak
  | Mret
  | Illegal of int              (** a raw word that does not decode *)

val nop : t
(** [addi x0, x0, 0]. *)

val bytes : width -> int

val is_branch : t -> bool

val is_call : t -> bool
(** [jal ra, _] or [jalr ra, _, _]. *)

val is_return : t -> bool
(** [jalr x0, ra, imm] — a return-address-stack pop. *)

val is_indirect : t -> bool
(** Any [Jalr]. *)

val is_control : t -> bool
(** Branch, jal or jalr. *)

val is_store : t -> bool

val may_fault : t -> bool
(** Conservatively true for memory accesses and the explicit trap
    instructions (illegal / ecall / ebreak). *)

val writes : t -> Reg.t option
(** Destination register, if any ([x0] destinations return [None]). *)

val reads : t -> Reg.t list
(** Source registers (without [x0]). *)

val csr_addr : csr -> int
(** Standard machine-mode CSR addresses. *)

val csr_of_addr : int -> csr option

val to_string : t -> string
(** Assembly-like rendering for logs and reports. *)
