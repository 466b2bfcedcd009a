(** Word-level circuit netlists.

    A netlist is a set of typed cells connected by signals, the same level of
    abstraction as the RTL IR the paper instruments with Yosys passes
    (word-level cells, non-flattened memories).  Signals are created through
    builder functions; registers and memories support forward references so
    feedback loops can be closed after the combinational logic is built.

    Every cell carries a [module] tag, mirroring the RTL module hierarchy;
    the cell-level IFT shadow counts tainted registers per tag
    ({!Dvz_ift.Shadow.tainted_by_module}), the netlist analogue of the
    fuzzer's per-module coverage matrix. *)

type t
(** A netlist under construction (and, once closed, under simulation). *)

type signal = private int
(** A signal handle.  Signals are only meaningful within their netlist. *)

type mem
(** A memory handle. *)

exception Width_error of string
(** Raised when a control signal has an illegal width: a [Mux] selector, a
    register enable, or a memory write enable that is not exactly 1 bit
    wide.  The simulators treat those controls as boolean ([<> 0]); a
    multi-bit control would silently select the wrong arm or drop a latch,
    so it is rejected by name at construction time (and again by
    {!validate} when a simulator is built). *)

(** Cell operations.  [Mux (s, a, b)] selects [b] when [s] is 1, matching the
    paper's [S ? B : A] notation. *)
type cell =
  | Input
  | Const of int
  | Not of signal
  | And of signal * signal
  | Or of signal * signal
  | Xor of signal * signal
  | Mux of signal * signal * signal
  | Eq of signal * signal
  | Lt of signal * signal
  | Add of signal * signal
  | Sub of signal * signal
  | Shl of signal * int
  | Shr of signal * int
  | Slice of signal * int
  | Concat of signal * signal
  | Reg of reg
  | Mem_read of mem * signal

and reg = {
  mutable d : signal option;  (** data input, connected via {!reg_connect} *)
  mutable en : signal option; (** optional enable *)
  init : int;                 (** reset value *)
}

val create : unit -> t

val scoped : t -> string -> (unit -> 'a) -> 'a
(** [scoped t name f] runs [f] with the current module tag set to [name];
    cells built inside get that tag.  Scopes nest with [.] separators. *)

val input : t -> ?name:string -> int -> signal
(** [input t w] declares a primary input of width [w]. *)

val const : t -> int -> int -> signal
(** [const t w v] is the constant [v] of width [w]. *)

val not_ : t -> signal -> signal
val and_ : t -> signal -> signal -> signal
val or_ : t -> signal -> signal -> signal
val xor_ : t -> signal -> signal -> signal

val mux : t -> signal -> signal -> signal -> signal
(** [mux t s a b] is [b] when [s]=1 else [a].  [s] must be 1 bit wide and
    [a], [b] equal widths. *)

val eq : t -> signal -> signal -> signal
(** 1-bit equality comparison. *)

val lt : t -> signal -> signal -> signal
(** 1-bit unsigned less-than. *)

val add : t -> signal -> signal -> signal
val sub : t -> signal -> signal -> signal
val shl : t -> signal -> int -> signal
val shr : t -> signal -> int -> signal

val slice : t -> signal -> lo:int -> width:int -> signal
(** [slice t s ~lo ~width] extracts bits [lo .. lo+width-1]. *)

val concat : t -> signal -> signal -> signal
(** [concat t hi lo] is [{hi, lo}]; width is the sum of both widths. *)

val reg : t -> ?name:string -> ?init:int -> int -> signal
(** [reg t w] declares a register of width [w] and returns its output [Q].
    The data input must be connected later with {!reg_connect}. *)

val reg_connect : t -> signal -> d:signal -> ?en:signal -> unit -> unit
(** [reg_connect t q ~d ~en ()] closes the feedback loop of register [q]. *)

val mem : t -> ?name:string -> width:int -> depth:int -> unit -> mem
(** Declares a synchronous-write, combinational-read memory. *)

val mem_read : t -> mem -> signal -> signal
(** [mem_read t m addr] is a combinational read port. *)

val mem_write : t -> mem -> wen:signal -> addr:signal -> data:signal -> unit
(** Adds a write port; the write commits at the clock edge when [wen]=1. *)

(* Introspection used by the simulator and the IFT instrumentation. *)

val num_signals : t -> int
val cell_of : t -> signal -> cell
val width_of : t -> signal -> int
val module_of : t -> signal -> string
val name_of : t -> signal -> string
val signal_of_int : t -> int -> signal
(** [signal_of_int t i] recovers the handle for index [i]; raises
    [Invalid_argument] if out of range. *)

val registers : t -> signal list
(** All register output signals, in creation order. *)

val mems : t -> mem list
val mem_width : mem -> int
val mem_depth : mem -> int
val mem_name : mem -> string
val mem_writes : mem -> (signal * signal * signal) list
(** Write ports as [(wen, addr, data)] triples. *)

val topo_order : t -> signal array
(** Combinational cells (everything except [Input], [Const], [Reg]) in
    dependency order.  Raises [Failure] on a combinational cycle. *)

val validate : t -> unit
(** Re-checks the construction-time width invariants over the whole
    netlist: every [Mux] selector, register enable and memory write enable
    must be 1 bit wide.  Raises {!Width_error} naming the offending signal
    otherwise.  Simulators call this before lowering the netlist. *)

val modules : t -> string list
(** All distinct module tags, sorted. *)
