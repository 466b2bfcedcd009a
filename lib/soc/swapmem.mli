(** Dynamic swappable memory (§3.2).

    The swapMem time-shares the swappable code region between instruction
    sequences with different semantics: training sequences run first, then
    the secret region's permissions are tightened, then the transient
    sequence runs.  Each sequence ends by trapping (the generators terminate
    blobs with [ebreak]); the trap handler — modelled by {!on_trap} — loads
    the next scheduled blob into the swappable region, flushes the
    instruction cache (via the caller's hook) and redirects execution to the
    blob's entry.

    The structure is pure bookkeeping over {!Phys_mem}; the DUT (golden
    model or microarchitectural core) executes against the same memory. *)

type blob = {
  name : string;
  words : int array;            (** assembled instruction words *)
  is_transient : bool;          (** true for the transient packet *)
}

type t

val create : blobs:blob list -> schedule:int list -> t
(** [create ~blobs ~schedule] prepares a swapMem whose schedule names blob
    indices in execution order.  Raises [Invalid_argument] on an index out
    of range or a blob too large for the swappable region. *)

val blobs : t -> blob list
val schedule : t -> int list

val reset : t -> unit
(** Rewinds the schedule to the beginning. *)

val current : t -> blob option
(** The blob currently loaded, if any. *)

val load_next : t -> Phys_mem.t -> blob option
(** Loads the next scheduled blob into the swappable region of the given
    memory (padding the rest of the region with [ebreak] words so runaway
    execution traps) and returns it; [None] when the schedule is
    exhausted. *)

val remaining : t -> int
(** Number of blobs not yet loaded. *)

val position : t -> int
(** Number of blobs loaded so far (the schedule cursor). *)

val copy : ?pos:int -> t -> t
(** An independent cursor over the same blobs and schedule, at [pos]
    (default: [t]'s position).  Blobs are immutable, so only the cursor
    is copied. *)

val with_schedule : t -> int list -> t
(** A fresh swapMem over the same blobs with a different schedule — how the
    training reduction strategy re-simulates with a packet removed. *)
