(** The fleet supervisor: one coordinator process, N worker subprocesses.

    The coordinator runs the ordinary {!Dejavuzz.Campaign.run} engine
    and owns its entire fold (corpus, coverage, finding dedup,
    checkpoints, events); workers are stateless plan executors reached
    through the {!Proto} pipe protocol.  Each batch's plans are sharded
    across live workers; plans are plain data with pre-split RNGs, so a
    shard orphaned by a worker death is simply re-executed — by a
    backoff-respawned replacement, a surviving worker, or (once every
    slot has exhausted its respawn budget) inline in the coordinator.
    Outcomes are folded in plan-index order once the batch is complete,
    which makes fleet output byte-identical to a single-process
    [--jobs 1] run regardless of worker deaths: the determinism
    contract CI gates on.  Workers send back only what the fold reads —
    one [Outcome] per plan, plus [Hello] and the periodic [Telemetry]
    flush (the heartbeat) for supervision and observation — and never
    see a checkpoint.

    Failure detection is layered: pipe EOF / [EPIPE] / protocol
    corruption condemn a worker immediately; silence (no frame of any
    kind) past [fl_deadline_s] (SIGSTOP, livelock) draws a SIGKILL
    first.  Every death returns the worker's outstanding plans to the
    pool and counts toward [dvz_fleet_worker_restarts_total].

    The coordinator's worker record is the fleet's only supervision
    record — pid, state, deaths (the incarnation), outcomes recorded and
    the time of the last frame; it is published into the
    {!Telemetry} plane, which serves it as one row per slot. *)

type opts = {
  fl_workers : int;  (** fleet size; 0 = coordinator executes everything *)
  fl_worker_jobs : int;  (** domains each worker spends on its shard *)
  fl_heartbeat_s : float;
      (** worker telemetry flush (heartbeat) interval; [0.] flushes only
          at shutdown *)
  fl_deadline_s : float;
      (** declare a live worker dead after this much silence; [0.] never *)
  fl_max_respawns : int;  (** deaths allowed per slot before retirement *)
  fl_backoff_base_s : float;
      (** respawn backoff: a slot's [k]th death delays its respawn by
          [min fl_backoff_cap_s (fl_backoff_base_s *. 2 ** (k - 1))] *)
  fl_backoff_cap_s : float;  (** respawn backoff: cap *)
  fl_chaos : (int * int * int) list;
      (** fault-injection hooks for tests/CI: [(epoch, slot, signal)] —
          send [signal] to [slot]'s process right after the epoch's
          initial assignment *)
  fl_profile : bool;
      (** arm each worker's profiler; aggregates ride telemetry frames *)
  fl_trace : bool;  (** also record per-worker trace events *)
  fl_log : string -> unit;  (** lifecycle log lines (default stderr) *)
  fl_launch :
    (slot:int -> incarnation:int -> int * Unix.file_descr * Unix.file_descr)
    option;
      (** test seam: spawn a worker, returning
          [(pid, to_worker_fd, from_worker_fd)]; default re-execs this
          binary as [dejavuzz worker --slot K --incarnation G].
          [incarnation] is the slot's spawn generation (its death count)
          and must be echoed in the worker's [Telemetry] frames *)
}

val default_opts : opts
(** 4 workers, 1 domain each, 1s heartbeats, 10s deadline, 5 respawns
    per slot, 0.5s–30s backoff, no chaos, stderr logging. *)

type fleet_stats = {
  fs_workers : int;
  fs_spawns : int;  (** worker processes launched, initial spawns included *)
  fs_restarts : int;  (** respawns scheduled after a death *)
  fs_retired : int;  (** slots that exhausted their respawn budget *)
  fs_heartbeats_missed : int;
  fs_inline_plans : int;  (** plans the coordinator executed itself *)
}

val run :
  ?telemetry:Dejavuzz.Campaign.telemetry ->
  ?resilience:Dejavuzz.Campaign.resilience ->
  plane:Telemetry.t ->
  opts ->
  Dvz_uarch.Config.t ->
  Dejavuzz.Campaign.options ->
  Dejavuzz.Campaign.stats * fleet_stats
(** Runs the campaign on a supervised fleet.  [plane] receives every
    worker's telemetry — [Hello] handshakes (clock alignment) and
    [Telemetry] frame ingestion, including a final drain of each pipe
    after Shutdown so the workers' last flushes land before the fds
    close — and the supervision snapshot after every change, which it
    serves as [/fleet].  Telemetry is observation-only and never feeds
    the campaign fold, so output stays byte-identical to [--jobs 1].
    Workers rebuild [resilience.rz_budget] from its
    {!Dvz_uarch.Dualcore.budget_limits}.  Forces [rz_checkpoint_keep]
    on, and when [rz_resume] names a checkpoint that fails validation
    ({!Dejavuzz.Campaign.Bad_checkpoint}) but a [.prev] rotation exists,
    falls back to it once.  Ignores [SIGPIPE].  Workers are always shut
    down (Shutdown frame, then SIGKILL after a grace period) on any
    exit, including exceptions. *)
