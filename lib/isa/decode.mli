(** RV64 instruction decoding — the inverse of {!Encode} on the supported
    subset.  Words outside the subset decode to [Insn.Illegal raw], which is
    exactly how the microarchitectural model treats them. *)

val decode : int -> Insn.t
(** [decode word] decodes the low 32 bits of [word].  Every committed and
    transient slot decodes its word, so [decode] extracts only the fields
    the word's format has, in the arm that matched its opcode and funct
    bits, and allocates nothing but the result. *)
