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

    Both paths compute values with the same ISA semantics: a transient
    instruction's register results come from {!Dvz_isa.Golden.exec},
    {!Dvz_isa.Golden.load_value} and {!Dvz_isa.Golden.cond_holds} run on the
    speculative register copy.  What stays here is speculation-specific:
    store-queue forwarding, the values faulting loads forward, transient
    accesses at user privilege, and the effect and taint events.

    Every {!step} reports its slot's microarchitectural effects as an
    {!Effect.slot}, which the dual-instance taint engine consumes; {!finish},
    for callers that read only the end state, builds none.  Timing is
    modelled by a per-slot cycle cost (cache misses, divider and port
    contention), which is what the constant-time oracle compares across
    instances. *)

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
(** Re-arms an existing core for a new stimulus without reallocating, from
    any point of any run (finished, mid-run, inside an open window):
    [reset t stim] {!blit}s a never-stepped core of [t]'s configuration
    (one per configuration, built once and shared by every domain) into
    [t], then loads [stim] as {!create} does.  Afterwards the core is
    bit-identical (state hash, windows, cycle counts, every observable) to
    [create cfg stim], [cfg] being the configuration [t] was built with,
    as long as {!blit} copies every layer.  The memory copy moves only
    the pages [t]'s run wrote ({!Dvz_soc.Phys_mem.blit}: the zero core's
    pages are all clean), typically 2 to 4 of 16.  The pooling fast path
    behind {!Dejavuzz.Simpool}. *)

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

val mem : t -> Dvz_soc.Phys_mem.t

val step : t -> Effect.slot option
(** Executes one instruction slot; [None] once the stimulus has finished
    (schedule exhausted or slot budget spent).  Always exactly one slot,
    nop or not: {!run}, [trace] and the waveform example see every
    slot. *)

val is_done : t -> bool

val in_window : t -> bool
(** Whether the next {!step} runs a slot inside an open transient window
    (that slot's [sl_transient]); false once the stimulus has finished. *)

val cycles : t -> int
val committed : t -> int
val slot_count : t -> int

val windows : t -> window_record list
(** Closed windows in chronological order. *)

val live : t -> Elem.t -> bool
(** End-of-run liveness of a state element (§4.3.2): caches/TLB/BTB report
    their valid bits, the RAS its pending-entry range, the LFB its MSHR
    valid bits; drained structures (ROB, speculative registers, load/store
    queues) are dead; architectural state is live. *)

val run : t -> Effect.slot list
(** Steps to completion, returning all slots. *)

val finish : t -> unit
(** Steps to completion like {!run}, but quietly: each slot makes every
    state transition {!step} makes (caches, TLBs, LFB, predictors, queues,
    port timers, the planted bugs, window records, cycles and counters)
    and builds no {!Effect.slot}, effect event or element list, and each
    run of committed canonical nops advances in one closed-form
    {!skip_nops}.  The final state (windows, cycles, slot and commit
    counts, registers, state hash) is {!run}'s.  For callers that only
    look at the state afterwards; {!step} and {!run} are unchanged. *)

(** {2 Committed nop runs}

    A committed canonical nop ([addi zero, zero, 0], word [0x00000013])
    does nothing but fetch: one icache access, pc + 4, a clean RoB write
    and a cycle (plus the refill latency on an icache miss).  A run of
    them advances in closed form: one icache access per line, the pc,
    slot, commit and cycle counters updated once. *)

val nop_run_pair : t -> t -> int -> int
(** [nop_run_pair a b limit]: how many of the next slots, at most
    [limit], both [a] and [b] would spend committing canonical nops at the
    same pcs with the same icache outcome on every line, so that stepping
    them in lockstep emits identical events.  0 unless both sit at the
    same pc outside a window and neither is done.  A run ends at the
    stimulus' slot cap, at the first word that is not a fetchable
    canonical nop, just before a word the read watch covers (tested
    without reading it, so the watch latch stays as it was), at the first
    icache line on which the two caches disagree, and before it would
    touch more lines than the icache has. *)

val skip_nops :
  ?each:(line:int -> refill:bool -> rob:int -> unit) -> t -> int -> unit
(** [skip_nops t n] commits the next [n] slots of [t], which
    {!nop_run_pair} must have vouched for, in closed form: afterwards [t]
    is in the state [n] {!step}s would leave it in.  [each] is called once
    per slot, in order, with the icache line the slot fetched from,
    whether that fetch refilled it, and the RoB entry the slot wrote —
    what {!Taintstate.committed_nop} needs.  Adds [n] to
    [dvz_core_nop_slots_skipped_total] (once per call). *)

val state_hash : t -> int
(** A hash of the final microarchitectural state — cache tags and cached
    line contents, LFB data, predictor state, queue contents and the cycle
    count.  This is the SpecDoctor-style differential oracle: comparing the
    hashes of the two DUT instances flags {e any} secret-dependent state
    difference, including unexploitable residue (§3.1's C2-2). *)

(** {2 Test observation} *)

val arch_reg : t -> Dvz_isa.Reg.t -> int
(** Committed (architectural) register value — speculation must never be
    visible here; the co-simulation tests check this against the pure
    golden model. *)

val spec_reg : t -> Dvz_isa.Reg.t -> int option
(** The open window's speculative register value, [None] outside a
    window; the window tests check it against the golden model. *)
