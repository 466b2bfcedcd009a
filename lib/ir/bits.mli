(** Word values for the circuit IR.

    A signal value is an OCaml [int] holding up to {!max_width} bits
    (LSB-first).  All operations mask their result to the signal width, so
    values are always canonical. *)

val max_width : int
(** Largest supported signal width (62 bits, so values stay non-negative). *)

val mask : int -> int
(** [mask w] is the all-ones value of width [w].  Requires [0 < w <= max_width]. *)

val trunc : int -> int -> int
(** [trunc w v] truncates [v] to its low [w] bits. *)

val bit : int -> int -> int
(** [bit v i] is bit [i] of [v] (0 or 1). *)

val popcount : int -> int
(** Number of set bits (SWAR, constant time over the 63-bit word; total on
    any [int], including negatives, counting the two's-complement bits). *)

val spread_up : int -> int -> int
(** [spread_up w m] sets every bit of [m] at or above its lowest set bit,
    up to width [w]; 0 if [m = 0].  Models carry-chain taint spreading in
    arithmetic cells: a tainted bit can influence all higher result bits. *)
