(** Cycle-accurate simulation of a {!Netlist}.

    Evaluation is two-phase, like an RTL simulator: {!eval} settles all
    combinational signals from the current register/memory/input state, and
    {!step} advances the clock (registers latch, memory writes commit).
    A typical cycle is: set inputs, [eval], observe outputs, [step].

    A netlist is lowered once, by {!lower}, into a {!program}: flat int
    arrays holding an opcode stream with pre-resolved operand indices and
    per-cell masks, a register-latch plan and a write-port plan.  This
    simulator runs the program on one value plane; [Dvz_ift.Shadow] runs
    the same program on two value planes and a taint plane.  Both have two
    engines that share their semantics bit for bit.  The default
    [`Compiled] engine executes the program, so its steady-state cycle
    performs no variant dispatch, no table lookups and no allocation.  The
    [`Interp] engine walks the netlist cells directly; it is the executable
    specification the compiled engine is differentially tested against. *)

(** {1 Lowering} *)

type program = {
  order : Netlist.signal array;
      (** the combinational cells in dependency order; entry [i] of every
          [p_] array describes cell [order.(i)] *)
  mems : Netlist.mem array;
      (** the memories in declaration order; [p_mem] and [c_mem] index it *)
  p_op : int array;
      (** the cell's opcode, with the operands it reads:
{v
   0 Not    a                      7 Lt     a b
   1 And    a b                    8 Shl    a, b = shift amount
   2 Or     a b                    9 Shr    a, b = shift amount (and Slice)
   3 Xor    a b                   10 Concat a = hi, c = lo, b = lo width
   4 Add    a b                   11 Mux    a = sel, b = sel=0 arm, c = other
   5 Sub    a b                   12 Mem_read a = addr, p_mem = memory
   6 Eq     a b
v} *)
  p_dst : int array;  (** the cell's own signal index *)
  p_a : int array;
  p_b : int array;
  p_c : int array;
      (** operands: signal indices, except where the table says otherwise *)
  p_w : int array;  (** result width *)
  p_mask : int array;  (** [Bits.mask] of the result width *)
  p_mem : int array;  (** [Mem_read]'s memory, as an index into [mems]; -1 elsewhere *)
  l_q : int array;
  l_d : int array;
  l_en : int array;
  l_w : int array;
      (** the register-latch plan, one entry per register: its output, data
          input, enable (-1 when always enabled) and width *)
  l_direct : int;
      (** the first [l_direct] registers read no register output through
          their data input or enable, so they may latch in place; the rest
          must be staged so that register-to-register feedback latches
          atomically *)
  c_wen : int array;
  c_addr : int array;
  c_data : int array;
  c_w : int array;
  c_mask : int array;
  c_mem : int array;
      (** the write-port plan, in declaration order (a later port wins an
          address conflict): the enable, address and data signals, the
          memory's width and mask, and its index into [mems] *)
  init : int array;
      (** the value plane at reset: register inits and constants, 0
          elsewhere *)
}

val lower : Netlist.t -> program
(** Checks and lowers a netlist.  Raises [Failure] if it has a
    combinational cycle or an unconnected register, and
    {!Netlist.Width_error} if a mux selector, register enable or memory
    write enable is not 1 bit wide ({!Netlist.validate} runs first). *)

val attach : program -> int array array -> int array array * int array array
(** [attach p stores], given one store per memory indexed like [p.mems],
    returns the store each cell reads ([[||]] for cells other than
    [Mem_read]) and the store each write port writes: the arrays an
    executor indexes per cell and per port. *)

val mem_index : program -> Netlist.mem -> int
(** The position of a memory in [mems]. *)

(** {1 Simulation} *)

type t

type engine = [ `Interp | `Compiled ]
(** Evaluation strategy, fixed at {!create}.  Both engines are observably
    identical (values, memories, tick counts); [`Compiled] is the fast
    default, [`Interp] the reference interpreter. *)

val create : ?engine:engine -> Netlist.t -> t
(** Builds a simulator; registers take their [init] values and memories are
    zero-filled.  [engine] defaults to [`Compiled].  Raises as {!lower}
    does. *)

val engine : t -> engine
(** The engine this simulator was created with. *)

val set_input : t -> Netlist.signal -> int -> unit
(** [set_input t s v] drives primary input [s] with [v] (truncated to the
    signal width).  Raises [Invalid_argument] if [s] is not an input. *)

val eval : t -> unit
(** Settles all combinational signals. *)

val step : t -> unit
(** Clock edge: latch registers, commit memory writes.  Must follow {!eval}. *)

val cycle : t -> unit
(** [eval] then [step], then runs the {!on_cycle} hooks with the new
    cycle count. *)

val cycles : t -> int
(** Number of completed {!cycle} calls ({!eval}/{!step} called directly
    are not counted). *)

val on_cycle : t -> (int -> unit) -> unit
(** Registers a hook called after every completed {!cycle} with the
    cycle count (first call sees [1]).  Hooks run in registration order;
    a raising hook escapes out of {!cycle} — this is how fault-injection
    harnesses abort a simulation at a chosen cycle.  Registration is O(n)
    in the number of hooks (it rebuilds a flat array the hot loop iterates);
    {!cycle} itself never allocates. *)

val peek : t -> Netlist.signal -> int
(** Current value of a signal (valid after {!eval} for combinational ones). *)

val peek_mem : t -> Netlist.mem -> int -> int
(** [peek_mem t m i] reads memory word [i] directly. *)

val poke_reg : t -> Netlist.signal -> int -> unit
(** Backdoor-writes a register's current output value. *)
