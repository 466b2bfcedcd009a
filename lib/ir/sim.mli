(** Cycle-accurate simulation of a {!Netlist}.

    Evaluation is two-phase, like an RTL simulator: {!eval} settles all
    combinational signals from the current register/memory/input state, and
    {!step} advances the clock (registers latch, memory writes commit).
    A typical cycle is: set inputs, [eval], observe outputs, [step].

    Two engines share these semantics bit-for-bit.  The default [`Compiled]
    engine lowers the netlist once, at {!create}, into flat int-array
    programs (an opcode stream with pre-resolved operand indices and
    per-cell masks, plus precomputed register-latch and memory-commit
    plans), so the steady-state cycle performs no variant dispatch, no
    hashtable lookups, and no allocation.  The [`Interp] engine walks the
    netlist cells directly; it is the executable specification the compiled
    engine is differentially tested against. *)

type t

type engine = [ `Interp | `Compiled ]
(** Evaluation strategy, fixed at {!create}.  Both engines are observably
    identical (values, memories, tick counts); [`Compiled] is the fast
    default, [`Interp] the reference interpreter. *)

val create : ?engine:engine -> Netlist.t -> t
(** Builds a simulator; registers take their [init] values and memories are
    zero-filled.  [engine] defaults to [`Compiled].  Raises [Failure] if the
    netlist has a combinational cycle or an unconnected register, and
    {!Netlist.Width_error} if a mux selector, register enable or memory
    write enable is not 1 bit wide ({!Netlist.validate} runs first). *)

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
