(** Microarchitectural state elements.

    Every taintable storage word in the core model has an [Elem.t] identity:
    the taint shadow ({!Taintstate}), the taint coverage matrix and the
    liveness oracle are all keyed by it.  The [module_of] projection mirrors
    the RTL module hierarchy, since the paper's coverage matrix counts
    tainted registers per module. *)

type t =
  | Areg of int          (** committed architectural register *)
  | Sreg of int          (** speculative (in-window) register copy — the
                             physical-register-file slots holding transient
                             results *)
  | Mem of int           (** memory dword index (addr / 8) *)
  | Dcache of int        (** data cache line *)
  | Icache of int        (** instruction cache line *)
  | Lfb of int           (** line-fill buffer slot *)
  | Btb of int
  | Bht of int
  | Ras of int
  | Loop of int
  | Tlb of int
  | L2tlb of int
  | Rob of int
  | Ldq of int
  | Stq of int
  | Pc                   (** the (speculative) program counter *)

val module_of : t -> string
(** Module tag, e.g. ["lsu.dcache.bank2"], ["frontend.ras"], ["rob"].
    Cache and TLB arrays are banked, mirroring the RTL hierarchy: index
    [i]'s bank is [i land (banks - 1)].  Total: every element, whatever
    its index (negative or beyond its array), maps into {!all_modules}.
    A static table lookup, no formatting. *)

val module_index : t -> int
(** Position of [module_of e] in {!all_modules} — a dense module id for
    per-module counters ({!Taintstate} keeps one per module). *)

val to_string : t -> string

val compare : t -> t -> int
(** The element order: [Pc] first, then by constructor in declaration
    order, then by index as a signed int.  This is exactly
    [Stdlib.compare]'s order (an immediate sorts below every block), so
    sorted element lists, checkpoint bytes and the dense numbering of
    {!Taintstate} are the same whichever of the two sorted them; a
    property in [test_uarch.ml] holds the two together on random pairs.
    Typed, so no runtime call. *)

val equal : t -> t -> bool
(** Structural equality, typed like {!compare}. *)

val all_modules : string list
(** Every module tag, sorted — the row space of the coverage matrix. *)
