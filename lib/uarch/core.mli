(** Speculative out-of-order core model.

    The model executes a swapMem stimulus one instruction per {!step} call.
    Committed instructions run on the architectural golden model; control
    mispredictions, architectural exceptions and memory-disambiguation
    mispredictions open {e transient windows}, during which subsequent
    instructions execute on a speculative register copy with full
    microarchitectural side effects (cache and TLB fills, RAS updates, port
    occupancy, LFB refills) but no architectural ones.  Squash restores the
    checkpointed structures — modulo the planted recovery bugs — and
    execution resumes.

    Every slot reports its microarchitectural effects as an {!Effect.slot},
    which the dual-instance taint engine consumes; timing is modelled by a
    per-slot cycle cost (cache misses, divider and port contention), which
    is what the constant-time oracle compares across instances. *)

type stimulus = {
  st_swapmem : Dvz_soc.Swapmem.t;
  st_tighten_secret : bool;
      (** flip the secret page to machine-only before the transient blob *)
  st_secret : int array;    (** dwords written to the secret region *)
  st_data : (int * int) list;
      (** extra (addr, dword) initialisation, e.g. operand tables *)
  st_perms : (int * Dvz_soc.Perm.t) list;
      (** page-permission overrides, e.g. an absent page for page-fault
          triggers *)
  st_max_slots : int;
}

(** A closed transient window, as recorded for the RoB trace log. *)
type window_record = {
  wr_kind : Effect.window_kind;
  wr_trigger_pc : int;
  wr_enqueued : int;        (** instructions enqueued but never committed *)
  wr_cycles : int;          (** window duration incl. post-squash stalls *)
  wr_start_slot : int;
  wr_secret_accessed : bool;(** a transient access touched the secret page *)
  wr_secret_fault : bool;   (** ... and that access was a privilege fault *)
  wr_in_transient_blob : bool;
}

type t

val create : Config.t -> stimulus -> t
(** Builds a core over a fresh memory, writes secrets and operand data,
    loads the first scheduled blob and points fetch at its entry. *)

val reset : t -> stimulus -> unit
(** Re-arms an existing core for a new stimulus without reallocating:
    after [reset t stim] the core is bit-identical (state hash, windows,
    cycle counts, every observable) to [create (config t) stim].  The
    pooling fast path behind {!Dejavuzz.Simpool}. *)

val blit : src:t -> dst:t -> unit
(** [blit ~src ~dst] copies every stateful layer of [src] into [dst] (same
    configuration): memory bytes and page permissions, the golden
    registers and CSRs, the predictors, caches, LFB, TLBs, store and load
    queues, the counters and the open window.  Afterwards stepping [dst]
    is bit-identical to stepping [src]; [dst] gets its own swap cursor and
    speculative registers, so the two evolve independently.  [dst] is
    left unwatched. *)

val copy : t -> t
(** A freshly allocated {!blit} of [t]. *)

val rebase : t -> Dvz_soc.Swapmem.t -> unit
(** [rebase t swap] switches [t] to the blobs of [swap] at [t]'s own
    schedule position, rewriting the words of the currently loaded blob
    that differ in [swap].  [swap] must have the same schedule and blob
    sizes.  Sound only if [t] never read those words (see {!watch}). *)

(** {2 Read watch}  Used to prove a run never looked at the words in
    which two stimuli differ (see {!Dvz_soc.Phys_mem.set_watch}). *)

val watch : t -> Bytes.t -> unit
(** [watch t bitmap] installs a swap-region read watch that arms once the
    core has the transient blob loaded (immediately if it already has). *)

val unwatch : t -> unit
val watch_hit : t -> bool

val fetch_watched : t -> bool
(** Whether the next {!step} will fetch a watched word: the commit pc
    outside a window, the speculative pc inside one that has not
    stalled. *)

val config : t -> Config.t
val mem : t -> Dvz_soc.Phys_mem.t

val step : t -> Effect.slot option
(** Executes one instruction slot; [None] once the stimulus has finished
    (schedule exhausted or slot budget spent). *)

val is_done : t -> bool

val arch_reg : t -> Dvz_isa.Reg.t -> int
(** Committed (architectural) register value — speculation must never be
    visible here; the co-simulation tests check this against the pure
    golden model. *)

val cycles : t -> int
val committed : t -> int
val slot_count : t -> int

val windows : t -> window_record list
(** Closed windows in chronological order. *)

val in_window : t -> bool

val live : t -> Elem.t -> bool
(** End-of-run liveness of a state element (§4.3.2): caches/TLB/BTB report
    their valid bits, the RAS its pending-entry range, the LFB its MSHR
    valid bits; drained structures (ROB, speculative registers, load/store
    queues) are dead; architectural state is live. *)

val run : t -> Effect.slot list
(** Steps to completion, returning all slots. *)

val finish : t -> unit
(** Steps to completion like {!run} but keeps no slot: each
    {!Effect.slot} dies in the minor heap instead of living until the run
    ends.  The final state (windows, cycles, state hash) is {!run}'s.  For
    callers that only look at the state afterwards. *)

val state_hash : t -> int
(** A hash of the final microarchitectural state — cache tags and cached
    line contents, LFB data, predictor state, queue contents and the cycle
    count.  This is the SpecDoctor-style differential oracle: comparing the
    hashes of the two DUT instances flags {e any} secret-dependent state
    difference, including unexploitable residue (§3.1's C2-2). *)
