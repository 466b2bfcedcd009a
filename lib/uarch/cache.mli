(** Direct-mapped caches and the line-fill buffer.

    The cache tracks tags only (data lives in {!Dvz_soc.Phys_mem});
    what the fuzzer observes is presence — which lines exist — plus the taint
    the shared shadow attaches to line and LFB elements.  A cache is one
    [int array], each line holding its block's tag ([addr / line_bytes])
    or a sentinel no tag equals when invalid, so {!blit} and
    {!invalidate_all} are typed int loops: no record per line, no write
    barrier, no closure.

    The LFB models the §3.1 C2-2 decoy: a refill deposits (possibly secret)
    data in a slot, and completion clears the MSHR valid bit {e without}
    clearing the data.  A value-matching or hash-based oracle flags the
    stale slot; the liveness oracle does not. *)

type t

val create : lines:int -> line_bytes:int -> t
(** [lines] is a power of two.  Raises [Invalid_argument] when
    [line_bytes] is below 2 (the invalid-line sentinel relies on it). *)

val access : t -> addr:int -> [ `Hit of int | `Miss of int ]
(** Accesses the line containing [addr], filling it on a miss; returns the
    line index either way. *)

val line_index : t -> addr:int -> int
(** The index of the line [addr] maps to. *)

val hits : t -> addr:int -> bool
(** Whether an {!access} to [addr] would hit; changes nothing. *)

val fill : t -> addr:int -> bool
(** {!access} without the result block: fills the line on a miss and
    says whether it missed. *)

val invalidate_all : t -> unit
(** Flush (fence.i / swap-time icache flush): every line invalid. *)

val blit : src:t -> dst:t -> unit
(** Copies [src]'s state into [dst] (same geometry). *)

val valid : t -> int -> bool

val line_addr : t -> int -> int
(** Base byte address of the (valid) line at index [i]. *)

(* Line-fill buffer with MSHR valid bits. *)
module Lfb : sig
  type t

  val create : entries:int -> t

  val blit : src:t -> dst:t -> unit
  (** Copies [src]'s state into [dst] (same geometry). *)

  val refill : t -> data:int -> int
  (** A refill passes through the LFB: allocates the next slot round-robin,
      deposits [data], and — the refill having completed — leaves the slot's
      MSHR valid bit {e clear}.  Returns the slot index. *)

  val data : t -> int -> int
  val valid : t -> int -> bool
end
