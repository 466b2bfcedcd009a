(** Architectural golden-model simulator, and the one home of the
    register-level ISA semantics.

    Executes the {!Insn} subset against a caller-supplied memory, modelling
    the architecturally visible machine only: register file, pc, privilege
    level and the machine-mode trap CSRs.  The fuzzer uses it as the ISA
    simulator of §4.1.1 — computing the operands a transient window needs,
    predicting architectural control flow, and classifying exceptions —
    and the microarchitectural model uses it as the per-instruction
    executive: commits step a {!t}, and transient windows run {!exec},
    {!load_value} and {!cond_holds} on their speculative register copy, so
    the two paths cannot compute different values.

    Values are OCaml native ints (63-bit); the model is faithful for the
    sub-2^62 address space and data ranges the fuzzer generates, which is
    all the paper's trigger classes require. *)

type priv = User | Machine

type memory = {
  load : priv:priv -> addr:int -> size:int -> (int, Trap.cause) result;
  store : priv:priv -> addr:int -> size:int -> value:int -> (unit, Trap.cause) result;
  fetch : priv:priv -> addr:int -> (int, Trap.cause) result;
      (** returns the raw 32-bit instruction word *)
}

type t

val create : ?pc:int -> ?priv:priv -> ?mtvec:int -> memory -> t

val pc : t -> int
val priv : t -> priv
val reg : t -> Reg.t -> int
val set_pc : t -> int -> unit
val set_priv : t -> priv -> unit
val mepc : t -> int
val mcause : t -> int
val copy : t -> t
(** Snapshot of the architectural state sharing the same memory. *)

val blit : src:t -> dst:t -> unit
(** Copies [src]'s registers, pc, privilege and CSRs into [dst]; [dst]
    keeps its own memory closures. *)

(** {2 Register-level semantics} *)

val exec : int array -> pc:int -> Insn.t -> int
(** [exec regs ~pc insn] performs the register-file half of a [Lui],
    [Auipc], [Op], [Opi], [Fdiv], [Jal] or [Jalr] at [pc] on the 32-entry
    file [regs] (x0 reads as 0 and is never written) and returns the next
    pc.  Raises [Invalid_argument] on any other instruction: memory
    accesses, branches and system instructions need more than a register
    file. *)

val load_value : Insn.width -> bool -> int -> int
(** [load_value width unsigned raw] is the register value of a load that
    read the zero-extended [raw] bytes: sign-extended unless [unsigned] or
    a doubleword. *)

val cond_holds : Insn.cond -> int -> int -> bool
(** Whether a branch with this condition is taken on these operands. *)

(** What one instruction did, as observed architecturally. *)
type step = {
  s_pc : int;                    (** address of the executed instruction *)
  s_insn : Insn.t;
  s_next_pc : int;               (** pc after the instruction (post-trap) *)
  s_trap : Trap.cause option;    (** exception raised, if any *)
  s_taken : bool option;         (** branch outcome for [Branch] *)
  s_target : int option;         (** control-flow target actually taken *)
  s_mem_addr : int option;       (** effective address of a load/store *)
  s_loaded : int option;         (** value a load read *)
}

val step : t -> step
(** Executes one instruction.  On a trap the CSRs are updated and control
    transfers to [mtvec] (exactly once — a trap inside the handler while in
    machine mode halts via [Failure], which indicates a broken stimulus). *)

val step_decoded : t -> fetched:(int * Insn.t, Trap.cause) result -> step
(** [step] with the instruction fetch and decode hoisted out: [fetched]
    must equal what [t.mem.fetch ~priv:(priv t) ~addr:(pc t)] (followed by
    {!Decode.decode} on success) would return right now.  Lets a frontend
    that already fetched and decoded the commit-point word (for prediction
    lookups) share that work instead of the golden model redoing both. *)

val run : t -> ?fuel:int -> stop:(t -> bool) -> unit -> step list
(** [run t ~stop ()] steps until [stop t] holds or [fuel] (default 10_000)
    instructions have executed; returns the trace in execution order. *)
