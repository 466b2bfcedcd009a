(** RV64 instruction encoding.

    Produces the standard 32-bit little-endian instruction words for the
    supported subset.  [Illegal raw] encodes as its raw word, so generated
    fault triggers survive an encode/decode round trip. *)

val encode : Insn.t -> int
(** [encode i] is the 32-bit instruction word (as a non-negative int).
    Raises [Invalid_argument] when an immediate does not fit its field. *)

val fits_imm12 : int -> bool
(** Whether a signed immediate fits the 12-bit I/S-type field. *)
