(** A small direct-mapped TLB (page-granular).  Like {!Cache}, only
    presence is modelled, in one [int array] (an entry's virtual page
    number, or a sentinel no page number equals when invalid); fills
    during transient execution leave observable (and taintable) traces,
    one of the encoded timing components of Table 5. *)

type t

val create : entries:int -> page_bytes:int -> t
(** [entries = 0] builds a disabled TLB that always hits and never fills.
    Raises [Invalid_argument] unless [page_bytes] is a power of two of at
    least 2.  Page numbers are computed as {!Cache} computes tags: a shift
    for non-negative addresses, the division for negative ones. *)

val disabled : int
(** What {!access} returns on a disabled TLB; no hit or miss equals it. *)

val access : t -> addr:int -> int
(** Accesses the entry of [addr]'s page, filling it on a miss.  Returns
    the entry index [i] on a hit, [lnot i] (negative) on a miss and
    {!disabled} when [entries = 0]. *)

val valid : t -> int -> bool

val blit : src:t -> dst:t -> unit
(** Copies [src]'s state into [dst] (same geometry). *)
