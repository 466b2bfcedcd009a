(** Load/store queues.

    The store queue is where memory-disambiguation windows come from: a
    store's address counts as unresolved for [store_resolve_delay] slots
    after it executes; a younger load that reads an overlapping address
    while the store is unresolved — and whose {!Predictors.Mdp} entry
    predicts independence — speculatively consumes the stale memory value
    and must later be squashed.

    A transient window checkpoints both queues as [blit] copies made at
    window open, and squash [blit]s them back, rolling back transient
    allocations; entries are {!Elem.t}-addressable state. *)

module Stq : sig
  type t

  val create : entries:int -> t

  val blit : src:t -> dst:t -> unit
  (** Copies [src]'s state into [dst] (same geometry). *)

  val alloc :
    t -> addr:int -> size:int -> data:int -> ?old_data:int ->
    resolve_at:int -> unit -> int
  (** Allocates the next slot round-robin; [data] is kept as the [size]
      bytes the store writes (its low bytes, zero-extended); [resolve_at]
      is the slot index at which the store's address becomes
      architecturally resolved; [old_data] is the memory content the store
      overwrote — what a disambiguation-mispredicted younger load
      transiently consumes. *)

  val pending_alias :
    t -> now:int -> addr:int -> size:int -> (int * int) option
  (** [(slot, old_data)] of the youngest still-unresolved older store whose
      footprint overlaps [addr,size), if any. *)

  val forward : t -> now:int -> addr:int -> size:int -> (int * int) option
  (** [(slot, data)] of the youngest {e resolved} store covering the access
      exactly — ordinary store-to-load forwarding.  [data] holds the stored
      bytes zero-extended, as a memory read of them would return. *)
end

module Ldq : sig
  type t

  val create : entries:int -> t

  val blit : src:t -> dst:t -> unit
  (** Copies [src]'s state into [dst] (same geometry). *)

  val alloc : t -> addr:int -> int
  val valid : t -> int -> bool
end
