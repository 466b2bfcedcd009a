(** Architectural exception causes (the subset relevant to transient-window
    triggering — the "mem-excp" and "illegal" classes of Tables 3 and 5). *)

type cause =
  | Fetch_access_fault
  | Illegal_instruction
  | Breakpoint
  | Load_misalign
  | Load_access_fault
  | Store_misalign
  | Store_access_fault
  | Ecall_from_user
  | Ecall_from_machine
  | Load_page_fault
  | Store_page_fault

val name : cause -> string

val code : cause -> int
(** RISC-V mcause encoding. *)

val is_memory : cause -> bool
(** True for the load/store access/page-fault/misalign causes. *)
