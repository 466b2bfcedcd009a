(** Taint propagation policies.

    [Cellift] implements the state-of-the-art cell-level policies of §2.2
    (Policy 1 for AND, Policy 2 for MUX, and their analogues for the other
    cells); control taints propagate whenever a control signal is tainted.

    [Diffift] implements the paper's differential policies (Table 1):
    control taints additionally require the corresponding cross-instance
    comparison ([diff]) signal to be high, i.e. the two DUT instances —
    executing the same instructions with different secrets — must actually
    disagree on the concrete control value.  This under-approximates
    information flow but eliminates control-flow over-tainting. *)

type mode = Cellift | Diffift

val mode_name : mode -> string

val mode_of_name : string -> mode option
(** The inverse of {!mode_name}. *)

val and_taint : a:int -> b:int -> at:int -> bt:int -> int
(** Policy 1: [ (A & Bt) | (B & At) | (At & Bt) ]. *)

val or_taint : a:int -> b:int -> at:int -> bt:int -> int
(** Dual of Policy 1: a 0 input masks the other operand's taint. *)

val mux_taint :
  mode -> width:int -> s:int -> s_diff:bool -> a:int -> b:int ->
  st:int -> at:int -> bt:int -> ab_xor:int -> int
(** Policy 2 / Table 1 row 1.  [s] is the selector value (instance A),
    [s_diff] whether the two instances' selectors differ, [ab_xor] the union
    of per-instance [A ^ B] values. *)

val cmp_taint : mode -> o_diff:bool -> at:int -> bt:int -> int
(** Comparison cells (Eq/Lt): Table 1 row 2 — in [Diffift] mode the 1-bit
    output is tainted only when the outputs differ across instances. *)

val arith_taint : width:int -> at:int -> bt:int -> int
(** Add/Sub: taints spread upward along the carry chain (both modes). *)

val reg_en_taint :
  mode -> width:int -> en:bool -> en_diff:bool -> ent:int ->
  dt:int -> qt:int -> dq_xor:int -> int
(** Register-with-enable: Table 1 row 3. *)

val mem_read_ctrl : mode -> width:int -> addrt:int -> addr_diff:bool -> int
(** Memory read: full-width control taint when the address is tainted
    (and, in [Diffift], differs across instances). *)

val mem_write_ctrl :
  mode -> width:int -> wen:bool -> went:int -> wen_diff:bool ->
  addrt:int -> addr_diff:bool -> int
(** Memory write: full-width control taint for the addressed slot when the
    write enable or address is tainted (gated on diffs in [Diffift]). *)
