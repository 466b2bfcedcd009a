(** Per-domain {!Dvz_uarch.Dualcore} instance pool.

    Building a testbench (fresh memories, predictor arrays, queues, taint
    tables for both instances) costs about a fifth to a third of
    simulating a curated attack through it — 17–23 µs for
    {!Dvz_uarch.Dualcore.create} against 56–122 µs for a pooled acquire
    plus run, fastest of 200 on a 2-vCPU host — and leaves major-heap
    garbage behind, so the oracle re-arms a cached instance with
    {!Dvz_uarch.Dualcore.reset} instead of re-creating it per iteration.
    The cache is a single slot per domain, keyed on everything baked in at
    create time — [(cfg, mode)] — and held in [Domain.DLS]
    (the same domain-local discipline as {!Dvz_resilience.Fault}), so
    worker domains never contend and never share mutable simulator state.

    Pooled-vs-fresh bit-identity is pinned by the differential property
    tests in [test_fuzz.ml]; instances are pooled only without a
    provenance recorder (the armed replay path always builds fresh). *)

val acquire :
  ?log_bound:Dvz_ift.Taintlog.bound ->
  ?mode:Dvz_ift.Policy.mode ->
  Dvz_uarch.Config.t ->
  Dvz_uarch.Core.stimulus ->
  Dvz_uarch.Dualcore.t
(** [acquire ~mode cfg stim] returns a testbench armed with [stim],
    behaviourally identical to [Dualcore.create ~mode cfg stim]: the
    calling domain's cached instance re-armed when its key matches, a
    freshly built (and cached) one otherwise.  Defaults match
    [Dualcore.create].  The returned instance is valid until the calling
    domain's next [acquire]; collected {!Dvz_uarch.Dualcore.result}
    values stay valid forever (they never alias pooled state).

    [log_bound] is accepted and ignored: the testbench keeps no taint
    log.  It stays only because [bench/e2e]'s replay passes it, until
    that replay ([resim.ml], [traced.ml]) is retired. *)

val fork :
  ?mode:Dvz_ift.Policy.mode ->
  Dvz_uarch.Config.t ->
  Dvz_uarch.Dualcore.t ->
  Dvz_uarch.Dualcore.t
(** [fork ~mode cfg src] copies [src] (an instance built with that key)
    into the calling domain's second pooled instance and returns it:
    {!Dvz_uarch.Dualcore.blit} on a hit, a fresh
    {!Dvz_uarch.Dualcore.copy} on a miss.  It is a separate slot from
    {!acquire}'s, so [src] can keep running beside its copy.  Valid until
    the calling domain's next [fork]. *)

val acquire_core :
  Dvz_uarch.Config.t -> Dvz_uarch.Core.stimulus -> Dvz_uarch.Core.t
(** [acquire_core cfg stim] is the single-[Core] twin of {!acquire} for
    the phase-1 trigger evaluator: a bare testbench armed with [stim],
    behaviourally identical to [Core.create cfg stim], pooled per domain
    in its own slot keyed on [cfg] alone.  Valid until the calling
    domain's next [acquire_core]. *)

val clear : unit -> unit
(** Drop the calling domain's cached instances, fork target included
    (tests, memory pressure). *)

val cached : unit -> (Dvz_uarch.Config.t * Dvz_ift.Policy.mode) option
(** The calling domain's cached key, if any (introspection for tests). *)
