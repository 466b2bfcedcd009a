(** The differential testbench: two identical cores, two secrets, one taint
    shadow (§3.3, Figure 5's RTL-simulation stage).

    Instance A runs the stimulus with its secret, instance B with a
    different one (bit-flipped by default, per §3.3's false-negative
    mitigation); the shared {!Taintstate} observes both.  The run result
    packages everything the fuzzer's three phases consume: the RoB-derived
    window records of both instances (trigger detection, Phase 1), the
    per-module taint counts of the transient-window slots (coverage,
    Phase 2), window timing of both instances (constant-time analysis,
    Phase 3) and the final tainted elements partitioned by liveness
    (tainted-sink analysis, Phase 3).  It keeps no per-slot series:
    Figure 6 reads the taint population slot by slot off a testbench it
    steps with {!step}. *)

type result = {
  r_windows_a : Core.window_record list;
  r_windows_b : Core.window_record list;
  r_window_counts : int list list;
      (** chronological: {!Taintstate.tainted_points} after each slot in
          which instance A is inside a transient window, the taint
          coverage matrix's input (§4.2.2), one packed [(module, count)]
          point per non-zero module.  A vector equal to the previous one
          with no taint transition between them is recorded once, and an
          empty one not at all. *)
  r_slots : int;
  r_cycles_a : int;
  r_cycles_b : int;
  r_committed_a : int;
  r_final_tainted : Elem.t list;
  r_live_tainted : Elem.t list;      (** tainted and live (instance A) *)
  r_dead_tainted : Elem.t list;
  r_timed_out : bool;
      (** true when a watchdog budget aborted the run; the other fields
          describe the partial simulation up to that point *)
}

type budget
(** A watchdog: limits on how long one dual-DUT simulation may run. *)

val budget :
  ?max_slots:int -> ?max_wall_s:float -> ?clock:Dvz_obs.Clock.t -> unit -> budget
(** [budget ~max_slots ~max_wall_s ()] caps a run at [max_slots]
    simulation slots and/or [max_wall_s] wall-clock seconds (measured on
    [clock], default the real clock; the wall clock is polled every 64
    slots).  Omitted limits are unlimited.  Raises [Invalid_argument]
    unless [max_slots] is positive and [max_wall_s] positive and
    finite. *)

val budget_limits : budget -> int option * float option
(** [(max_slots, max_wall_s)] of a budget: what a fleet worker rebuilds
    it from (on the real clock). *)

type t

val create :
  ?provenance:Dvz_ift.Provenance.t ->
  ?mode:Dvz_ift.Policy.mode ->
  ?secret_b:int array ->
  Config.t ->
  Core.stimulus ->
  t
(** [create cfg stim] builds the testbench.  [secret_b] defaults to the
    bitwise complement of [stim.st_secret] (low 32 bits); pass
    [stim.st_secret] itself to reproduce the diffIFT^FN worst case; it
    must have as many dwords as [stim.st_secret] ([Invalid_argument]
    otherwise).  [mode] defaults to [Diffift].

    [provenance] arms element-granularity taint tracing for a replay
    pass: the planted secret words are recorded as sources (at time -1)
    and every taint transition appends an edge stamped with the current
    slot and window context; the simulation itself is unaffected. *)

val reset : t -> Core.stimulus -> unit
(** [reset t stim] re-arms a built testbench for a new stimulus without
    reallocating either core or the taint tables: afterwards [t] behaves
    bit-identically to [create ~mode cfg stim] with the [mode] it was
    created with (instance B gets [create]'s default, bit-flipped
    secret).  This is the pooling fast path used by
    {!Dejavuzz.Simpool}; the pooled-vs-fresh property tests in
    [test_fuzz.ml] pin the equivalence. *)

val blit : src:t -> dst:t -> unit
(** [blit ~src ~dst] copies [src]'s whole state into [dst]: both cores
    ({!Core.blit}), the taint tables and saved checkpoint, the window
    counts, the slot count, the taint high-water mark and the hung /
    corrupted / timed-out flags.  [dst] must have been built with the
    same configuration and mode; neither may carry a provenance
    recorder.  Stepping [dst] afterwards is bit-identical to
    stepping [src]. *)

val copy : t -> t
(** A freshly allocated {!blit} of [t] (no provenance recorder). *)

val rebase : t -> Dvz_soc.Swapmem.t -> unit
(** {!Core.rebase} on both instances, each at its own schedule
    position. *)

val core_a : t -> Core.t
val core_b : t -> Core.t
val taint : t -> Taintstate.t

val slots : t -> int
(** Slots stepped so far. *)

val watch_hit : t -> bool
(** Whether either instance read a word watched by {!run}'s [fork]. *)

val step : t -> bool
(** Advances both instances one slot and updates the taint shadow; false
    once both instances have finished.  Always exactly one slot: Figure 6
    and the coverage property see every slot.  Polls the ambient
    {!Dvz_resilience.Fault} state once per slot: an armed [Hang] fault
    wedges the testbench (slots keep counting, the cores stop, [step]
    never returns false — only a {!budget} ends the run), an armed
    [Corrupt] fault skews instance B's collected timing. *)

val run : ?budget:budget -> ?fork:int list * (t -> unit) -> t -> result
(** Steps to completion and collects the result.  With a [budget], a run
    that exceeds it is aborted and collected with [r_timed_out = true]
    (counted in [dvz_watchdog_timeouts_total]).

    Runs of committed canonical nops advance in closed form
    ({!Core.nop_run_pair}, {!Core.skip_nops}) wherever both instances
    would emit identical events for the whole run: both at the same pc
    outside a window, an untainted pc, the same icache outcome on every
    line, no fault plan armed and no provenance recorder.  Each such
    slot still gets its taint decisions ({!Taintstate.committed_nop}),
    high-water mark and slot count, so the result and both cores' states
    are {!step}'s to the bit.  A fast-forward ends at the budget's slot
    limit and, under a wall-clock limit, at the next slot count the clock
    is polled at, so the budget is checked at the same slots as when
    stepping.

    [fork = (words, f)] watches the swap-region words [words] (indices
    from {!Dvz_soc.Layout.swap_base}, 4 bytes each) in each instance from
    the moment it loads the transient blob, and calls [f t] once, just
    before the first slot in which an instance is about to fetch one of
    them.  A read of a watched word before that point (a load, a store's
    old-data read, an LFB refill) cancels the fork: [f] is never called
    and {!watch_hit} holds after the run.  If neither happens, the run
    never observed the words at all.  Watching does not change the
    run. *)

val count_run : result -> unit
(** Counts [r] once more in [dvz_sim_runs_total] and
    [dvz_sim_cycles_total]: for a logical run whose result is reused
    instead of simulated again. *)

val window_timing_diffs : result -> (int * int * int) list
(** Per paired window: [(index, cycles_a, cycles_b)] where the two
    instances' durations differ — the transient-window constant-time
    violations of §4.3.1. *)
