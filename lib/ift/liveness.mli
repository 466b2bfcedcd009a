(** Taint liveness annotations (§4.3.2).

    Buffers in a microarchitecture keep stale data after their managing
    state machine has invalidated them (the LFB/MSHR example of §3.1).
    A taint sitting in such a slot is unexploitable.  Developers bind the
    taint state of a register array to per-slot liveness signals — the
    generic-vector interface of the paper's [liveness_mask] attribute — and
    the oracle then counts only taints whose liveness bit is high. *)

type t

val create : Shadow.t -> t

val bind_regs :
  t ->
  sinks:Dvz_ir.Netlist.signal array ->
  valid:Dvz_ir.Netlist.signal array ->
  unit
(** [bind_regs t ~sinks ~valid] declares that register [sinks.(i)] is live
    only while [valid.(i)] evaluates to 1 (in instance A).  Raises
    [Invalid_argument] unless both arrays have the same length. *)

val live_tainted : t -> int
(** Number of tainted annotated slots whose liveness signal is high. *)

val dead_tainted : t -> int
(** Number of tainted annotated slots whose liveness signal is low —
    residual, unexploitable taints that a liveness-unaware oracle would
    misreport. *)
