(** A small direct-mapped TLB (page-granular).  Like {!Cache}, only
    presence is modelled; fills during transient execution leave observable
    (and taintable) traces, one of the encoded timing components of
    Table 5. *)

type t

val create : entries:int -> page_bytes:int -> t
(** [entries = 0] builds a disabled TLB that always hits and never fills. *)

val access : t -> addr:int -> [ `Hit of int | `Miss of int | `Disabled ]

val valid : t -> int -> bool

val blit : src:t -> dst:t -> unit
(** Copies [src]'s state into [dst] (same geometry). *)
