type ctrl_kind = C_branch | C_target | C_addr | C_squash

let ctrl_kind_name = function
  | C_branch -> "branch"
  | C_target -> "target"
  | C_addr -> "addr"
  | C_squash -> "squash"

type event =
  | Write of Elem.t * Elem.t list
  | Ctrl of {
      kind : ctrl_kind;
      value : int;
      srcs : Elem.t list;
      touched : Elem.t list;
    }
  | Copy_regs_to_spec
  | Snapshot of Elem.t list
  | Restore of Elem.t list

type window_kind =
  | W_exception of Dvz_isa.Trap.cause
  | W_branch_mispred
  | W_jump_mispred
  | W_return_mispred
  | W_mem_disamb

let window_kind_name = function
  | W_exception c -> "excp:" ^ Dvz_isa.Trap.name c
  | W_branch_mispred -> "branch-mispred"
  | W_jump_mispred -> "jump-mispred"
  | W_return_mispred -> "return-mispred"
  | W_mem_disamb -> "mem-disamb"

type slot = {
  sl_pc : int;
  sl_insn : Dvz_isa.Insn.t;
  sl_transient : bool;
  sl_window_opened : window_kind option;
  sl_window_closed : bool;
  sl_events : event list;
  sl_cycles : int;
  sl_swapped : bool;
}
