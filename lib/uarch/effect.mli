(** Per-instruction microarchitectural effects.

    The core model emits one [slot] record per executed instruction; the
    dual-instance taint engine ({!Taintstate}) consumes the paired records
    of the two DUTs and applies {!Dvz_ift.Policy}'s Table 1 rows at the
    state-element level: a [Write] goes through the register-with-enable
    row, a [Ctrl] through the memory-write row (the cross-instance value
    comparison providing the [diff] signal), and [Snapshot]/[Restore]
    express squash recovery of checkpointed structures. *)

type ctrl_kind =
  | C_branch   (** a branch direction decision *)
  | C_target   (** an indirect-jump / return target decision *)
  | C_addr     (** an address selecting a cache/TLB entry *)
  | C_squash   (** a pipeline flush steered by in-flight state *)

val ctrl_kind_name : ctrl_kind -> string

type event =
  | Write of Elem.t * Elem.t list
      (** [Write (dst, srcs)]: [dst] is overwritten with data derived from
          [srcs]; {!Taintstate} decides its new taint from the sources'
          taints, its own, and the mode. *)
  | Ctrl of {
      kind : ctrl_kind;
      value : int;          (** the concrete decision this instance made *)
      srcs : Elem.t list;   (** state feeding the decision *)
      touched : Elem.t list;(** elements steered by the decision *)
    }
  | Copy_regs_to_spec
      (** window open: the speculative register copy inherits the committed
          registers' taints *)
  | Snapshot of Elem.t list
      (** checkpoint the taints of these elements (window open) *)
  | Restore of Elem.t list
      (** squash: restore the checkpointed taints of these elements —
          a partial list models buggy recovery (B2) *)

type window_kind =
  | W_exception of Dvz_isa.Trap.cause
  | W_branch_mispred
  | W_jump_mispred
  | W_return_mispred
  | W_mem_disamb

val window_kind_name : window_kind -> string

(** One executed instruction slot. *)
type slot = {
  sl_pc : int;
  sl_insn : Dvz_isa.Insn.t;
  sl_transient : bool;      (** ran in a window; otherwise committed *)
  sl_window_opened : window_kind option;
  sl_window_closed : bool;
  sl_events : event list;
  sl_cycles : int;          (** core cycle counter after this slot *)
  sl_swapped : bool;        (** a sequence boundary was crossed *)
}
