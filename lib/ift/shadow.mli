(** Dual-DUT shadow co-simulation — the differential IFT testbench of §3.3.

    Two instances of the same netlist execute in lockstep; instance A and
    instance B receive the same stimulus except for the signals the caller
    drives with {!set_input_pair} (the secrets).  One shadow taint state is
    maintained alongside, updated per cell by {!Policy} in the selected
    mode.  The paper's diffIFT^FN variant (worst-case false negatives) is
    obtained simply by driving both instances with the same secret.

    There is one lowering, {!Dvz_ir.Sim.lower}: this co-simulator runs the
    program the plain simulator runs, on two value planes (A and B) and a
    taint plane, with one store per memory and plane.

    The campaign's taint engine is element-level ([Dvz_uarch.Taintstate],
    which applies the same {!Policy} rows to 1-bit element taints); this
    cell-level engine runs Table 4's netlist measurements, and its
    [`Interp] engine is the reference that [Taintstate] is checked against
    on random event pairs lowered to small netlists. *)

type t

type engine = Dvz_ir.Sim.engine
(** Evaluation strategy, as for the plain simulator: the default
    [`Compiled] engine executes the lowered program over all three planes
    (steady-state cycles allocate nothing); [`Interp] walks the cells
    directly and is the reference the compiled engine is differentially
    tested against. *)

val create : ?engine:engine -> Policy.mode -> Dvz_ir.Netlist.t -> t
(** Builds a shadow co-simulator with all taints clear; registers take
    their [init] values and memories are zero-filled in both instances.
    [engine] defaults to [`Compiled].  Raises as {!Dvz_ir.Sim.lower}
    does: [Failure] on a combinational cycle or an unconnected register,
    {!Dvz_ir.Netlist.Width_error} on a mux selector, register enable or
    memory write enable that is not 1 bit wide. *)

val engine : t -> engine
(** The engine this co-simulator was created with. *)

val set_input : t -> Dvz_ir.Netlist.signal -> int -> unit
(** Drives both instances with the same value; input taint is cleared. *)

val set_input_pair : t -> Dvz_ir.Netlist.signal -> int -> int -> unit
(** [set_input_pair t s va vb] drives the instances with different values
    and marks the input fully tainted (it carries a secret). *)

val set_input_taint : t -> Dvz_ir.Netlist.signal -> int -> unit
(** Overrides the taint mask of an input. *)

val eval : t -> unit
(** Settles combinational values of both instances and all shadow taints. *)

val cycle : t -> unit
(** {!eval}, then the clock edge for both instances and the shadow state. *)

val peek_a : t -> Dvz_ir.Netlist.signal -> int
val peek_b : t -> Dvz_ir.Netlist.signal -> int
val taint_of : t -> Dvz_ir.Netlist.signal -> int
(** Taint mask of a signal (valid after {!eval} for combinational ones). *)

val poke_mem_pair : t -> Dvz_ir.Netlist.mem -> int -> int -> int -> unit
(** [poke_mem_pair t m i va vb] backdoor-writes a memory word in both
    instances, tainting it when the values differ. *)

val mem_taint : t -> Dvz_ir.Netlist.mem -> int -> int
(** Taint mask of memory word [i]. *)

val tainted_registers : t -> int
(** Number of register signals with a non-zero taint mask. *)

val taint_bit_sum : t -> int
(** Total tainted bits over registers and memory words — the y-axis of the
    paper's Figure 6. *)

val tainted_by_module : t -> (string * int) list
(** Tainted-register count per module tag, sorted by tag; memory words are
    attributed to the memory's module.  Drives the taint coverage matrix. *)

val clear_taints : t -> unit
(** Clears every shadow taint (registers, memories, inputs). *)
