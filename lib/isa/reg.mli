(** Integer register names of the RV64 subset.

    Registers are plain integers 0..31 behind a private alias so encoders
    cannot be handed out-of-range values.  [x0] is hardwired to zero. *)

type t = private int

val x : int -> t
(** [x n] is register [xn].  Requires [0 <= n <= 31]. *)

val to_int : t -> int

(** [zero] is x0; [ra] is x1 (the return address register, relevant to the
    return address stack); [sp]..[a3] follow the RISC-V ABI numbering. *)

val zero : t
val ra : t
val sp : t
val t0 : t
val t1 : t
val t2 : t
val s0 : t
val s1 : t
val a0 : t
val a1 : t
val a2 : t
val a3 : t

val name : t -> string
(** ABI name, e.g. ["ra"], ["a0"], ["x18"] for the unnamed ones. *)

val equal : t -> t -> bool
